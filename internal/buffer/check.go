package buffer

import "testing"

// checkWindows turns on the checking mode of windowed update brackets:
// BeginUpdate snapshots the whole page even when windows were declared,
// and EndUpdate runs the whole-page diff beside the windowed one and
// fails the update if a byte outside the declared windows changed. It is
// on in test binaries and in -race builds; SetWindowCheck lets a
// benchmark inside a test binary measure the real path.
var checkWindows = raceEnabled || testing.Testing()

// SetWindowCheck switches the checking mode and returns the previous
// setting. Not safe for use while pages are being updated.
func SetWindowCheck(on bool) (was bool) {
	was, checkWindows = checkWindows, on
	return was
}
