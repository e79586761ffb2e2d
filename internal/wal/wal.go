// Package wal implements the NATIX write-ahead log: an append-only,
// LSN-addressed record stream that makes the write path durable and
// every document-store operation atomic across crashes.
//
// # Logging scheme
//
// The log is page-addressed and physical. Three record shapes describe
// page changes:
//
//   - page-image records hold the full after-image of a freshly
//     allocated page (bulk-loaded pages, newly formatted FSI pages).
//     Undoing one deallocates the page.
//   - first-update records are logged the first time an existing page
//     is modified after a checkpoint. They carry the full before-image
//     plus the changed byte ranges — the before-image doubles as the
//     redo base when the on-disk page is later found torn (the same
//     role full-page writes play in PostgreSQL).
//   - update records carry only the changed byte ranges, each with its
//     before and after bytes, so they redo and undo by plain byte
//     copies — both idempotent, which keeps restart recovery safe to
//     re-run if it is itself interrupted.
//
// Operation boundaries (begin/commit/abort) bracket each document-store
// mutation; a checkpoint record marks a point where all pages are known
// durable. Because the store runs one mutator at a time, records of
// different operations never interleave, and at most the final
// operation in the log can be unfinished.
//
// # Recovery
//
// Recover scans the valid prefix of the log (a CRC per record stops the
// scan at a torn tail), replays every record of finished operations
// since the last checkpoint onto the database device (redo), then walks
// the records of an unfinished tail operation backwards restoring
// before-images and deallocating fresh pages (undo). The recovered
// state is flushed, the device is truncated to its pre-operation size,
// and the log is reset. A database file is thus always restored to a
// state containing exactly the committed operations.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"natix/internal/pagedev"
)

// LSN is a log sequence number: the logical byte address of a record in
// the append-only log stream. LSNs increase monotonically for the life
// of a store, across log truncations (the log header records the LSN
// its first record corresponds to). 0 means "no record".
type LSN uint64

// Record types.
const (
	RecInvalid     uint8 = iota
	RecBegin             // operation start: opID, pre-op device size, kind
	RecCommit            // operation end, all effects durable-intent
	RecAbort             // operation end after a runtime rollback
	RecUpdate            // byte-range change: page, ranges(before, after)
	RecFirstUpdate       // first post-checkpoint change: page, before-image, ranges
	RecImage             // full after-image of a freshly allocated page
	RecCheckpoint        // all pages durable; device size at checkpoint
	RecShrink            // device truncated (runtime rollback deallocation)
)

// typeNames maps record types to display names (natix-inspect -wal).
var typeNames = [...]string{
	"invalid", "begin", "commit", "abort", "update", "first-update",
	"image", "checkpoint", "shrink",
}

// TypeName returns the display name of a record type.
func TypeName(t uint8) string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type-%d", t)
}

// Range is one changed byte span of a page. Before and After have the
// same length; redo copies After at Off, undo copies Before.
type Range struct {
	Off    int
	Before []byte
	After  []byte
}

// Record is one decoded log record.
type Record struct {
	LSN  LSN
	Type uint8

	OpID        uint64 // begin/commit/abort
	PreNumPages uint64 // begin: device size before the operation
	Kind        string // begin: operation label ("import:name", ...)

	Page        pagedev.PageNo // update/first-update/image
	BeforeImage []byte         // first-update
	Image       []byte         // image
	Ranges      []Range        // update/first-update

	NumPages uint64 // checkpoint and shrink: device size
}

// Log-file layout constants.
const (
	headerSize = 32
	frameSize  = 8 // u32 payload length + u32 CRC-32C

	// maxPayload bounds a record payload; a frame announcing more is
	// treated as a torn tail. The largest legitimate record is a
	// first-update at the maximum page size: a full before-image plus
	// disjoint ranges whose before+after bytes can together reach two
	// more page sizes, plus framing slack.
	maxPayload = 3*pagedev.MaxPageSize + 4096
)

var logMagic = [8]byte{'N', 'X', 'W', 'A', 'L', '0', '0', '1'}

// Errors.
var (
	ErrBadHeader = errors.New("wal: invalid log header")
	ErrBadRecord = errors.New("wal: invalid log record")
	ErrNoOp      = errors.New("wal: no active operation")
	ErrInOp      = errors.New("wal: operation already active")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded log-file header.
type header struct {
	base     LSN // LSN of the first record byte after the header
	pageSize int
}

func encodeHeader(h header) []byte {
	b := make([]byte, headerSize)
	copy(b, logMagic[:])
	binary.LittleEndian.PutUint64(b[8:], uint64(h.base))
	binary.LittleEndian.PutUint32(b[16:], uint32(h.pageSize))
	return b
}

func decodeHeader(b []byte) (header, error) {
	if len(b) < headerSize || [8]byte(b[:8]) != logMagic {
		return header{}, ErrBadHeader
	}
	h := header{
		base:     LSN(binary.LittleEndian.Uint64(b[8:])),
		pageSize: int(binary.LittleEndian.Uint32(b[16:])),
	}
	if h.base == 0 || !pagedev.ValidPageSize(h.pageSize) {
		return header{}, ErrBadHeader
	}
	return h, nil
}

// appendFramed appends r to dst as one framed record — the 8-byte frame
// (payload length, CRC-32C of the payload) followed by the payload —
// and returns the grown buffer and the payload's length. The payload is
// encoded straight into dst behind a reserved frame that is filled in
// afterwards, so a record costs no buffer of its own.
func appendFramed(dst []byte, r *Record) ([]byte, int) {
	start := len(dst)
	var fr [frameSize]byte
	dst = appendPayload(append(dst, fr[:]...), r)
	payload := dst[start+frameSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst, len(payload)
}

// appendPayload appends the serialized record body (everything but the
// frame) to b.
func appendPayload(b []byte, r *Record) []byte {
	b = append(b, r.Type)
	switch r.Type {
	case RecBegin:
		b = binary.LittleEndian.AppendUint64(b, r.OpID)
		b = binary.LittleEndian.AppendUint64(b, r.PreNumPages)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Kind)))
		b = append(b, r.Kind...)
	case RecCommit, RecAbort:
		b = binary.LittleEndian.AppendUint64(b, r.OpID)
	case RecUpdate:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Page))
		b = appendRanges(b, r.Ranges)
	case RecFirstUpdate:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Page))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.BeforeImage)))
		b = append(b, r.BeforeImage...)
		b = appendRanges(b, r.Ranges)
	case RecImage:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Page))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Image)))
		b = append(b, r.Image...)
	case RecCheckpoint, RecShrink:
		b = binary.LittleEndian.AppendUint64(b, r.NumPages)
	}
	return b
}

func appendRanges(b []byte, ranges []Range) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ranges)))
	for _, r := range ranges {
		b = binary.LittleEndian.AppendUint16(b, uint16(r.Off))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Before)))
	}
	for _, r := range ranges {
		b = append(b, r.Before...)
	}
	for _, r := range ranges {
		b = append(b, r.After...)
	}
	return b
}

// decodePayload parses a record body. The returned record aliases b;
// callers that retain it must copy.
func decodePayload(b []byte) (Record, error) {
	if len(b) < 1 {
		return Record{}, ErrBadRecord
	}
	r := Record{Type: b[0]}
	b = b[1:]
	u64 := func() (uint64, bool) {
		if len(b) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, true
	}
	u32 := func() (uint32, bool) {
		if len(b) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v, true
	}
	u16 := func() (uint16, bool) {
		if len(b) < 2 {
			return 0, false
		}
		v := binary.LittleEndian.Uint16(b)
		b = b[2:]
		return v, true
	}
	bad := func() (Record, error) { return Record{}, ErrBadRecord }
	switch r.Type {
	case RecBegin:
		op, ok1 := u64()
		pre, ok2 := u64()
		n, ok3 := u16()
		if !ok1 || !ok2 || !ok3 || len(b) < int(n) {
			return bad()
		}
		r.OpID, r.PreNumPages, r.Kind = op, pre, string(b[:n])
	case RecCommit, RecAbort:
		op, ok := u64()
		if !ok {
			return bad()
		}
		r.OpID = op
	case RecUpdate:
		p, ok := u64()
		if !ok {
			return bad()
		}
		r.Page = pagedev.PageNo(p)
		ranges, rest, err := decodeRanges(b)
		if err != nil {
			return bad()
		}
		r.Ranges, b = ranges, rest
	case RecFirstUpdate:
		p, ok1 := u64()
		n, ok2 := u32()
		if !ok1 || !ok2 || len(b) < int(n) {
			return bad()
		}
		r.Page = pagedev.PageNo(p)
		r.BeforeImage = b[:n]
		b = b[n:]
		ranges, rest, err := decodeRanges(b)
		if err != nil {
			return bad()
		}
		r.Ranges, b = ranges, rest
	case RecImage:
		p, ok1 := u64()
		n, ok2 := u32()
		if !ok1 || !ok2 || len(b) < int(n) {
			return bad()
		}
		r.Page = pagedev.PageNo(p)
		r.Image = b[:n]
	case RecCheckpoint, RecShrink:
		n, ok := u64()
		if !ok {
			return bad()
		}
		r.NumPages = n
	default:
		return bad()
	}
	return r, nil
}

func decodeRanges(b []byte) ([]Range, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrBadRecord
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < 4*n {
		return nil, nil, ErrBadRecord
	}
	ranges := make([]Range, n)
	lengths := make([]int, n)
	total := 0
	for i := range ranges {
		ranges[i].Off = int(binary.LittleEndian.Uint16(b[4*i:]))
		lengths[i] = int(binary.LittleEndian.Uint16(b[4*i+2:]))
		total += lengths[i]
	}
	b = b[4*n:]
	if len(b) < 2*total {
		return nil, nil, ErrBadRecord
	}
	pos := 0
	for i := range ranges {
		ranges[i].Before = b[pos : pos+lengths[i]]
		pos += lengths[i]
	}
	for i := range ranges {
		ranges[i].After = b[pos : pos+lengths[i]]
		pos += lengths[i]
	}
	return ranges, b[pos:], nil
}

// Scan iterates the records in st, calling fn for each. It stops
// without error at the first torn or corrupt frame (the log's valid
// prefix ends there) and returns the header and the LSN one past the
// last valid record. An empty storage returns a zero header and LSN 0.
func Scan(st Storage, fn func(Record) error) (pageSize int, end LSN, err error) {
	size, err := st.Size()
	if err != nil {
		return 0, 0, err
	}
	if size == 0 {
		return 0, 0, nil
	}
	hb := make([]byte, headerSize)
	if _, err := st.ReadAt(hb, 0); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return 0, 0, err
	}
	off := int64(headerSize)
	lsn := h.base
	var fr [frameSize]byte
	for off+frameSize <= size {
		if _, err := st.ReadAt(fr[:], off); err != nil {
			break
		}
		n := int64(binary.LittleEndian.Uint32(fr[0:]))
		crc := binary.LittleEndian.Uint32(fr[4:])
		if n == 0 || n > maxPayload || off+frameSize+n > size {
			break
		}
		payload := make([]byte, n)
		if _, err := st.ReadAt(payload, off+frameSize); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != crc {
			break
		}
		rec, err := decodePayload(payload)
		if err != nil {
			break
		}
		rec.LSN = lsn
		if err := fn(rec); err != nil {
			return h.pageSize, lsn, err
		}
		off += frameSize + n
		lsn += LSN(frameSize + n)
	}
	return h.pageSize, lsn, nil
}
