package natix

import (
	"errors"

	"natix/internal/buffer"
	"natix/internal/core"
	"natix/internal/docstore"
	"natix/internal/pagedev"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("natix: database is closed")

// ErrDocNotFound reports an operation against a document name that is
// not in the catalog. Query, QueryIter, ExportXML, Delete, Convert,
// Document and ReindexDocument all return it, wrapped with the offending
// name; test with errors.Is(err, natix.ErrDocNotFound).
var ErrDocNotFound = docstore.ErrNotFound

// ErrBadQuery reports a malformed path expression. Prepare returns it at
// prepare time; the one-shot query entry points return it before taking
// any lock. Test with errors.Is(err, natix.ErrBadQuery).
var ErrBadQuery = docstore.ErrBadQuery

// ErrBadOptions reports an Options combination Open (or an
// options-gated accessor like SimStats) cannot honor: an invalid page
// size, SimulateDisk on a file-backed store. Wrapped with the specific
// complaint; test with errors.Is(err, natix.ErrBadOptions).
var ErrBadOptions = errors.New("natix: invalid options")

// ErrCorrupted reports a page that failed its checksum when read from
// the device — a torn write or external damage. Every page carries a
// CRC-32C refreshed on write-back and verified on fetch, so corruption
// surfaces as this typed error instead of decoded garbage. It is a
// detection signal, not a verdict: a scrub pass (DB.ScrubNow, or the
// background scrubber via Options.ScrubInterval) rebuilds pages the
// write-ahead log holds a full image for and quarantines the documents
// touching any it cannot, so a persistent ErrCorrupted from a document
// operation usually resolves into ErrQuarantined after the next pass.
// Test with errors.Is(err, natix.ErrCorrupted).
var ErrCorrupted = buffer.ErrCorrupted

// ErrQuarantined reports an operation against a document the integrity
// scrubber has quarantined: one of its pages is corrupt and the
// write-ahead log holds no image to rebuild it from. The error carries
// the document name and the reason recorded at quarantine time; other
// documents keep serving normally. Quarantine is in-memory — a reopen
// starts clean and the next scrub re-establishes the set if the damage
// persists. Test with errors.Is(err, natix.ErrQuarantined).
var ErrQuarantined = docstore.ErrQuarantined

// ErrTransientIO is the device-level transient I/O failure sentinel.
// The engine absorbs transient errors with bounded retry and backoff at
// every I/O site, so user-facing operations return it only after the
// retry budget is exhausted — seeing it means the device misbehaved
// repeatedly, not once. Test with errors.Is(err, natix.ErrTransientIO).
var ErrTransientIO = pagedev.ErrTransient

// ErrStaleMatch reports a Match read out after an edit of its document
// rewrote or deleted the record that holds the matched node: the match
// could read through its stored proxies into records since deleted,
// merged or reused, so it refuses instead. Query again for a current
// match. Text-only and literal matches never fail with it (see Match).
// Test with errors.Is(err, natix.ErrStaleMatch).
var ErrStaleMatch = core.ErrStaleRef
