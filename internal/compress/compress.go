// Package compress is a deflate page codec. Nothing in the engine uses
// it: it backs the compress.* per-layer probes of bench/ (what a page
// image of the store costs to deflate and inflate, and how far it
// shrinks), and it goes when the harness retires those probes.
//
// Only the standard library is used: Flate wraps compress/flate with
// pooled encoder and decoder state so the steady-state paths allocate
// nothing.
package compress

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"sync"
)

// ErrBadData reports compressed bytes that do not decode to exactly the
// expected length: truncated, trailing garbage, or a length mismatch.
var ErrBadData = errors.New("compress: malformed compressed data")

// DefaultLevel is the deflate level the probes use: BestSpeed, at which
// page-sized XML text still shrinks by 3-5x.
const DefaultLevel = flate.BestSpeed

// Flate is a deflate page codec with pooled encoder and decoder state.
// It is safe for concurrent use; the zero value is not usable,
// construct with NewFlate.
type Flate struct {
	enc sync.Pool // *flateEnc
	dec sync.Pool // *flateDec
}

// flateEnc is one pooled encoder: a flate.Writer permanently bound to
// its slice sink.
type flateEnc struct {
	w    *flate.Writer
	sink sliceSink
}

// sliceSink adapts an append-into-slice destination to io.Writer.
type sliceSink struct{ b []byte }

func (s *sliceSink) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// flateDec is one pooled decoder: an inflater resettable onto new input
// via flate.Resetter, plus the one-byte scratch used to verify the
// stream ends where the page does.
type flateDec struct {
	br  bytes.Reader
	r   io.ReadCloser
	one [1]byte
}

// NewFlate returns a deflate codec at the given compression level
// (flate.BestSpeed .. flate.BestCompression).
func NewFlate(level int) *Flate {
	f := &Flate{}
	f.enc.New = func() any {
		e := &flateEnc{}
		// The writer is rebound to the sink by Reset on every use; the
		// constructor error only fires for invalid levels.
		w, err := flate.NewWriter(&e.sink, level)
		if err != nil {
			w, _ = flate.NewWriter(&e.sink, DefaultLevel)
		}
		e.w = w
		return e
	}
	f.dec.New = func() any {
		d := &flateDec{}
		d.r = flate.NewReader(&d.br)
		return d
	}
	return f
}

// Name identifies the codec.
func (f *Flate) Name() string { return "flate" }

// Compress appends the encoded form of src to dst[:0] and returns the
// resulting slice, which may alias dst's backing array or a freshly
// grown one, like append.
func (f *Flate) Compress(dst, src []byte) ([]byte, error) {
	e := f.enc.Get().(*flateEnc)
	e.sink.b = dst[:0]
	e.w.Reset(&e.sink)
	if _, err := e.w.Write(src); err != nil {
		f.enc.Put(e)
		return nil, err
	}
	if err := e.w.Close(); err != nil {
		f.enc.Put(e)
		return nil, err
	}
	out := e.sink.b
	e.sink.b = nil // do not retain the caller's buffer in the pool
	f.enc.Put(e)
	return out, nil
}

// Decompress decodes enc into dst, which must be exactly the original
// length. The steady state allocates nothing: the inflater, its window
// and the input reader all come from the pool.
//
//natix:noalloc
func (f *Flate) Decompress(dst, enc []byte) error {
	d := f.dec.Get().(*flateDec)
	d.br.Reset(enc)
	if err := d.r.(flate.Resetter).Reset(&d.br, nil); err != nil {
		f.dec.Put(d)
		return err
	}
	if _, err := io.ReadFull(d.r, dst); err != nil {
		f.dec.Put(d)
		return ErrBadData
	}
	// The stream must end exactly at the page boundary; trailing data
	// means the encoded bytes do not belong to this page image.
	if n, err := d.r.Read(d.one[:]); n != 0 || err != io.EOF {
		f.dec.Put(d)
		return ErrBadData
	}
	f.dec.Put(d)
	return nil
}
