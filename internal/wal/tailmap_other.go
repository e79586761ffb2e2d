//go:build !linux

package wal

import (
	"errors"
	"os"
)

// canMapTail reports whether OpenMappedFileStorage maps the log's tail:
// off Linux every log write stays a pwrite.
const canMapTail = false

func mapFile(*os.File, int64, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) error { return nil }
