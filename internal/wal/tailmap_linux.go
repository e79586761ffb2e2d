package wal

import (
	"os"
	"syscall"
)

// canMapTail reports whether OpenMappedFileStorage maps the log's tail.
const canMapTail = true

// mapFile maps n bytes of f from offset off, shared and writable.
func mapFile(f *os.File, off int64, n int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), off, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func unmapFile(b []byte) error { return syscall.Munmap(b) }
