// Package wal implements the NATIX write-ahead log: an append-only,
// LSN-addressed record stream that makes the write path durable and
// every document-store operation atomic across crashes.
//
// # Logging scheme
//
// The log is page-addressed and physiological: every record names one
// page, three shapes describe its bytes and one describes an operation
// on them. Four record shapes describe page changes:
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
//     copies.
//   - shift records describe a node spliced into, or out of, a stored
//     record where it lies: "move the Tail bytes at Off by Delta", the
//     bytes written into the gap (and the ones the move destroys, for
//     undo), and the few small ranges that change beside it (slotted
//     header, slot entry, the ancestors' size fields). An insert logs
//     about what it inserts instead of the record's tail twice over.
//
// Record.Redo and Record.Undo are the one pair of appliers: restart
// recovery, runtime rollback and page reconstruction all go through
// them.
//
// # The epoch rule
//
// A shift is not idempotent — applied to a page that already holds it,
// it moves the tail again — and recovery has no page-LSN test. Neither
// is needed, because replay never starts from device bytes: the first
// record a checkpoint epoch holds for a page is always image-bearing
// (image or first-update), a shift is only ever appended for a page
// that already has that image in the epoch's log, and replay of a page
// starts by laying the image down. From there redo is deterministic
// (it repeats history, the unfinished tail operation included, which
// undo then takes back in reverse), so re-running an interrupted
// recovery reaches the same bytes. A shift for a page with no earlier
// image in the replayed log is refused (ErrBadRecord), and so is one
// whose before-bytes do not match the page it is applied to. An epoch
// ends wherever a checkpoint record may sit in the log — also when
// Checkpoint failed after appending it — because replay starts behind
// the last one: the caller must start a new epoch either way.
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
// scan at a torn tail, a zero frame length at the zeros a growth step
// of a mapped log file leaves behind its last record), replays every
// record of finished operations since the last checkpoint onto the
// database device (redo), then walks the records of an unfinished tail
// operation backwards restoring before-images and deallocating fresh
// pages (undo). The recovered state is flushed, the device is truncated
// to its pre-operation size, and the log is reset. A database file is
// thus always restored to a state containing exactly the committed
// operations.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"natix/internal/pagedev"
	"natix/internal/pageformat"
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
	RecShift             // cell tail moved by an in-place insert/removal: page, shift, ranges
)

// typeNames maps record types to display names (natix-inspect -wal).
var typeNames = [...]string{
	"invalid", "begin", "commit", "abort", "update", "first-update",
	"image", "checkpoint", "shrink", "shift",
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

// Shift is the body of a shift record: the move (pageformat.Shift —
// |Delta| bytes inserted at or removed from page offset Off, the Tail
// bytes behind that point moving with them) and the bytes it takes to
// replay it either way. Redo of an insert moves [Off, Off+Tail) up by
// Delta and writes Ins at Off; redo of a removal moves the tail down to
// Off and leaves the |Delta| bytes behind it as they were. Del holds the
// bytes redo destroys and undo puts back (Shift.Destroyed): the bytes
// removed at Off, or — for an insert — the bytes behind the tail that it
// is moved onto.
type Shift struct {
	pageformat.Shift
	Ins []byte // Delta > 0 only
	Del []byte
}

// Record is one decoded log record.
type Record struct {
	LSN  LSN
	Type uint8

	OpID        uint64 // begin/commit/abort
	PreNumPages uint64 // begin: device size before the operation
	Kind        string // begin: operation label ("import:name", ...)
	Subject     string // begin, writing only: the rest of the label, stored behind Kind and read back as part of it

	Page        pagedev.PageNo // update/first-update/image/shift
	BeforeImage []byte         // first-update
	Image       []byte         // image
	Ranges      []Range        // update/first-update/shift
	Shift       Shift          // shift

	NumPages uint64 // checkpoint and shrink: device size
}

// HeaderSize is the length of the log file's header: a log that holds
// no record is this long.
const HeaderSize = headerSize

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

// logMagic heads every log this build writes. Version 002 announces
// that the log may hold shift records; logMagicV1 heads the logs of
// builds that knew only the physical shapes, which this build still
// reads and recovers (it writes 002 at the next log reset). The version
// exists for the other direction: an older build stops at a log it
// cannot read instead of cutting it at the first shift (Scan takes a
// record of unknown type for a torn tail).
var (
	logMagic   = [8]byte{'N', 'X', 'W', 'A', 'L', '0', '0', '2'}
	logMagicV1 = [8]byte{'N', 'X', 'W', 'A', 'L', '0', '0', '1'}
)

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
	if len(b) < headerSize || [8]byte(b[:8]) != logMagic && [8]byte(b[:8]) != logMagicV1 {
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
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Kind)+len(r.Subject)))
		b = append(b, r.Kind...)
		b = append(b, r.Subject...)
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
	case RecShift:
		sh := &r.Shift
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Page))
		b = binary.LittleEndian.AppendUint16(b, uint16(sh.Off))
		b = binary.LittleEndian.AppendUint16(b, uint16(sh.Tail))
		b = binary.LittleEndian.AppendUint16(b, uint16(int16(sh.Delta)))
		b = append(b, sh.Ins...)
		b = append(b, sh.Del...)
		b = appendRanges(b, r.Ranges)
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
	case RecShift:
		p, ok1 := u64()
		off, ok2 := u16()
		tail, ok3 := u16()
		delta, ok4 := u16()
		if !ok1 || !ok2 || !ok3 || !ok4 || delta == 0 {
			return bad()
		}
		r.Page = pagedev.PageNo(p)
		sh := Shift{Shift: pageformat.Shift{Off: int(off), Tail: int(tail), Delta: int(int16(delta))}}
		k := sh.Delta
		if k > 0 {
			if len(b) < k {
				return bad()
			}
			sh.Ins, b = b[:k], b[k:]
		} else {
			k = -k
		}
		if len(b) < k {
			return bad()
		}
		sh.Del, b = b[:k], b[k:]
		ranges, _, err := decodeRanges(b)
		if err != nil {
			return bad()
		}
		r.Shift, r.Ranges = sh, ranges
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
