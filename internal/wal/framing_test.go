package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"natix/internal/pagedev"
)

// refAppendRecord and refEncodePayload are the framing the writer used
// before it framed records in place: the payload serialized into a
// buffer of its own, then copied behind a freshly computed frame. Kept
// as the oracle for appendFramed.
func refAppendRecord(dst []byte, payload []byte) []byte {
	var fr [frameSize]byte
	binary.LittleEndian.PutUint32(fr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fr[4:], crc32.Checksum(payload, crcTable))
	dst = append(dst, fr[:]...)
	return append(dst, payload...)
}

func refEncodePayload(r *Record) []byte {
	var b []byte
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

// everyRecordType is one record of each type, sized for a 512-byte page.
func everyRecordType() []Record {
	page := bytes.Repeat([]byte{0xA5, 0x5A, 0x00, 0xFF}, 128)
	ranges := []Range{
		{Off: 16, Before: []byte{1, 2, 3}, After: []byte{4, 5, 6}},
		{Off: 300, Before: bytes.Repeat([]byte{7}, 40), After: bytes.Repeat([]byte{8}, 40)},
	}
	return []Record{
		{Type: RecBegin, OpID: 1, PreNumPages: 12, Kind: "import:play"},
		{Type: RecBegin, OpID: 2},
		{Type: RecImage, Page: 13, Image: page},
		{Type: RecUpdate, Page: 3, Ranges: ranges},
		{Type: RecUpdate, Page: 3},
		{Type: RecFirstUpdate, Page: 1, BeforeImage: page, Ranges: ranges[:1]},
		{Type: RecShrink, NumPages: 12},
		{Type: RecAbort, OpID: 1},
		{Type: RecCommit, OpID: 2},
		{Type: RecCheckpoint, NumPages: 14},
	}
}

// TestAppendFramedMatchesReference: framing a record in place behind a
// reserved frame must produce exactly the bytes of encode-then-frame,
// whatever already sits in the buffer.
func TestAppendFramedMatchesReference(t *testing.T) {
	var got, want []byte
	for i, rec := range everyRecordType() {
		payload := refEncodePayload(&rec)
		want = refAppendRecord(want, payload)
		var n int
		got, n = appendFramed(got, &rec)
		if n != len(payload) {
			t.Fatalf("record %d (type %d): payload length %d, want %d", i, rec.Type, n, len(payload))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d (type %d): framed bytes differ from the reference", i, rec.Type)
		}
	}
}

// TestWriterLogBytesMatchReference drives every append of the writer and
// compares the log file with the reference framing of the same records —
// once with the default buffer and once with a buffer so small that every
// append crosses BufferLimit and is written out on its own (the crash
// tests' configuration), which must not change a byte.
func TestWriterLogBytesMatchReference(t *testing.T) {
	for _, limit := range []int{0, 1} {
		st := NewMemStorage()
		w, err := OpenWriter(st, Options{PageSize: 512, BufferLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		want := encodeHeader(header{base: 1, pageSize: 512})
		expect := func(rec Record) {
			want = refAppendRecord(want, refEncodePayload(&rec))
		}
		var bytesWant int64
		for _, rec := range everyRecordType() {
			var err error
			switch rec.Type {
			case RecBegin:
				if rec.OpID != 1 {
					continue // one operation at a time
				}
				_, err = w.Begin(rec.Kind, rec.PreNumPages)
			case RecImage:
				_, err = w.AppendImage(rec.Page, rec.Image)
			case RecUpdate:
				_, err = w.AppendUpdate(rec.Page, rec.Ranges)
			case RecFirstUpdate:
				_, err = w.AppendFirstUpdate(rec.Page, rec.BeforeImage, rec.Ranges)
			case RecShrink:
				_, err = w.AppendShrink(rec.NumPages)
			case RecAbort:
				err = w.Abort()
			default:
				continue // commit and checkpoint below
			}
			if err != nil {
				t.Fatalf("limit %d: append type %d: %v", limit, rec.Type, err)
			}
			expect(rec)
			bytesWant += int64(len(refEncodePayload(&rec)))
		}
		if _, err := w.Begin("edit", 14); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, rec := range []Record{{Type: RecBegin, OpID: 2, PreNumPages: 14, Kind: "edit"}, {Type: RecCommit, OpID: 2}} {
			expect(rec)
			bytesWant += int64(len(refEncodePayload(&rec)))
		}
		if got := st.Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("limit %d: log is %d bytes, reference framing %d; contents differ", limit, len(got), len(want))
		}
		if s := w.Stats(); s.Bytes != bytesWant || s.Appends != 9 {
			t.Fatalf("limit %d: stats %+v, want %d payload bytes in 9 appends", limit, s, bytesWant)
		}
		// And the framed records read back as what was appended.
		var back []Record
		if _, _, err := Scan(st, func(r Record) error {
			r.LSN = 0
			back = append(back, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(back) != 9 || back[1].Type != RecImage || !bytes.Equal(back[1].Image, everyRecordType()[2].Image) ||
			back[2].Page != pagedev.PageNo(3) || !reflect.DeepEqual(back[2].Ranges, everyRecordType()[3].Ranges) {
			t.Fatalf("limit %d: scan returned %d records: %+v", limit, len(back), back)
		}
	}
}

// FuzzDecodePayload feeds the log-record decoder arbitrary bytes. Frames
// are CRC-guarded, but recovery decodes whatever a frame's CRC vouches
// for, so on any input decodePayload must return a record or
// ErrBadRecord — never panic — and what it accepts must survive
// re-encoding: encode(decode(x)) decodes to the same record and is a
// fixed point of encode∘decode. The checked-in corpus under
// testdata/fuzz holds the records of a real logged session (a bulk
// import, node inserts and deletes, a checkpoint) at a 512-byte page;
// shift records are seeded from shiftSamples.
func FuzzDecodePayload(f *testing.F) {
	for _, rec := range everyRecordType() {
		f.Add(refEncodePayload(&rec))
	}
	for _, rec := range shiftSamples() {
		f.Add(appendPayload(nil, &rec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodePayload(data)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decodePayload error outside ErrBadRecord: %v", err)
			}
			return
		}
		size := len(rec.Kind) + len(rec.BeforeImage) + len(rec.Image) + len(rec.Shift.Ins) + len(rec.Shift.Del)
		if rec.Type == RecShift && (rec.Shift.Delta == 0 || len(rec.Shift.Del) != max(rec.Shift.Delta, -rec.Shift.Delta) ||
			len(rec.Shift.Ins) != max(rec.Shift.Delta, 0)) {
			t.Fatalf("shift by %d carries %d inserted and %d destroyed bytes", rec.Shift.Delta, len(rec.Shift.Ins), len(rec.Shift.Del))
		}
		for _, r := range rec.Ranges {
			if len(r.Before) != len(r.After) {
				t.Fatalf("range at %d: %d bytes before, %d after", r.Off, len(r.Before), len(r.After))
			}
			size += len(r.Before) + len(r.After)
		}
		if size > len(data) {
			t.Fatalf("%d content bytes decoded from %d input bytes", size, len(data))
		}
		enc := appendPayload(nil, &rec)
		if len(enc) > len(data) {
			t.Fatalf("re-encoding grew: %d bytes from %d", len(enc), len(data))
		}
		again, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("decode(encode(rec)): %v", err)
		}
		if !reflect.DeepEqual(normalize(again), normalize(rec)) {
			t.Fatalf("decode(encode(rec)) = %+v, want %+v", again, rec)
		}
		if !bytes.Equal(appendPayload(nil, &again), enc) {
			t.Fatal("encoding is not canonical")
		}
	})
}

// normalize maps empty slices to nil, which DeepEqual tells apart and
// the codec does not.
func normalize(r Record) Record {
	if len(r.BeforeImage) == 0 {
		r.BeforeImage = nil
	}
	if len(r.Image) == 0 {
		r.Image = nil
	}
	if len(r.Ranges) == 0 {
		r.Ranges = nil
	}
	if len(r.Shift.Ins) == 0 {
		r.Shift.Ins = nil
	}
	if len(r.Shift.Del) == 0 {
		r.Shift.Del = nil
	}
	for i := range r.Ranges {
		if len(r.Ranges[i].Before) == 0 {
			r.Ranges[i].Before, r.Ranges[i].After = nil, nil
		}
	}
	return r
}
