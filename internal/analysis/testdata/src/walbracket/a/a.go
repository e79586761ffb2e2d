// Fixture for the walbracket analyzer: positive cases carry want
// expectations, the clean brackets prove the analyzer stays quiet on
// the idiomatic shapes used across internal/records and
// internal/segment.
package a

import (
	"errors"

	"natix/internal/buffer"
)

var errBad = errors.New("bad")

func cond() bool { return false }

// goodBranch is the canonical bracket: EndUpdate on success,
// CancelUpdate on the failure path.
func goodBranch(f *buffer.Frame) error {
	u := f.BeginUpdate()
	if cond() {
		f.CancelUpdate(u)
		return errBad
	}
	return f.EndUpdate(u)
}

// goodIfElse closes on both arms before the common exit.
func goodIfElse(f *buffer.Frame) error {
	u := f.BeginUpdate()
	var err error
	if cond() {
		err = f.EndUpdate(u)
	} else {
		f.CancelUpdate(u)
	}
	return err
}

// goodDefer: a deferred close covers every exit.
func goodDefer(f *buffer.Frame) error {
	u := f.BeginUpdate()
	defer f.CancelUpdate(u)
	if cond() {
		return errBad
	}
	return nil
}

// goodReuse re-begins a closed token, the records.Update stub-path
// shape.
func goodReuse(f *buffer.Frame) error {
	u := f.BeginUpdate()
	f.CancelUpdate(u)
	u = f.BeginUpdate()
	return f.EndUpdate(u)
}

// goodLoop opens and closes within each iteration.
func goodLoop(f *buffer.Frame) error {
	for i := 0; i < 3; i++ {
		u := f.BeginUpdate()
		if cond() {
			f.CancelUpdate(u)
			continue
		}
		if err := f.EndUpdate(u); err != nil {
			return err
		}
	}
	return nil
}

func leakOnError(f *buffer.Frame) error {
	u := f.BeginUpdate()
	if cond() {
		return errBad // want "still open at this return"
	}
	return f.EndUpdate(u)
}

func leakAtEnd(f *buffer.Frame) {
	u := f.BeginUpdate()
	if cond() {
		f.CancelUpdate(u)
		return
	}
} // want "still open at the end of the function"

func leakOnPanic(f *buffer.Frame) error {
	u := f.BeginUpdate()
	if cond() {
		panic("boom") // want "still open at this panic"
	}
	return f.EndUpdate(u)
}

func doubleClose(f *buffer.Frame) {
	u := f.BeginUpdate()
	_ = f.EndUpdate(u)
	f.CancelUpdate(u) // want "closed twice"
}

func discarded(f *buffer.Frame) {
	_ = f.BeginUpdate() // want "discarded"
}

func unassigned(f *buffer.Frame) {
	f.BeginUpdate() // want "must be assigned"
}

func rebegun(f *buffer.Frame) {
	u := f.BeginUpdate()
	u = f.BeginUpdate() // want "re-begun while still open"
	f.CancelUpdate(u)
}

func loopLeak(f *buffer.Frame) {
	for i := 0; i < 3; i++ {
		u := f.BeginUpdate() // want "begun in a loop body"
		if cond() {
			f.CancelUpdate(u)
			continue
		}
	}
}

// The windowed form — the caller declares the byte spans it may touch —
// opens the same bracket and is held to the same rule.

// goodWindowed is records.Patch: one window, closed on the way out.
func goodWindowed(f *buffer.Frame) error {
	u := f.BeginUpdate(buffer.Window{Off: 40, Len: 8})
	copy(f.Data()[40:], "patched!")
	return f.EndUpdate(u)
}

// goodWindowedSpread is records.spliceAt: the windows computed before
// the bracket opens and passed as a slice.
func goodWindowedSpread(f *buffer.Frame, spans []buffer.Window) error {
	if len(spans) == 0 {
		return errBad
	}
	u := f.BeginUpdate(spans...)
	if cond() {
		f.CancelUpdate(u)
		return errBad
	}
	return f.EndUpdate(u)
}

// goodShiftOrWindows is records.spliceAt since the shift record: one of
// the two begin forms opens the bracket, one EndUpdate closes it.
func goodShiftOrWindows(f *buffer.Frame, spans []buffer.Window) error {
	var u buffer.Update
	if cond() {
		u = f.BeginShift(buffer.Shift{Off: 40, Tail: 8, Delta: 4}, spans...)
	} else {
		u = f.BeginUpdate(spans...)
	}
	return f.EndUpdate(u)
}

func shiftLeak(f *buffer.Frame) error {
	u := f.BeginShift(buffer.Shift{Off: 40, Tail: 8, Delta: 4})
	if cond() {
		return errBad // want "still open at this return"
	}
	return f.EndUpdate(u)
}

func windowedLeak(f *buffer.Frame) error {
	u := f.BeginUpdate(buffer.Window{Off: 16, Len: 1})
	if cond() {
		return errBad // want "still open at this return"
	}
	return f.EndUpdate(u)
}

func windowedRebegun(f *buffer.Frame, spans []buffer.Window) {
	u := f.BeginUpdate(spans...)
	u = f.BeginUpdate(buffer.Window{Off: 16, Len: 1}) // want "re-begun while still open"
	f.CancelUpdate(u)
}

func windowedDiscarded(f *buffer.Frame) {
	_ = f.BeginUpdate(buffer.Window{Off: 16, Len: 1}) // want "discarded"
}
