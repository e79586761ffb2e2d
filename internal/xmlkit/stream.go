package xmlkit

// StreamParser is the package's one XML parser: a pull parser yielding
// structural events off the input, which it reads in small chunks. The
// bulk loader packs the events into records as they arrive; Parse
// builds its tree from them. Memory is bounded by the open-element stack
// plus one buffered window (plus one held-back whitespace run), not by
// document size — which is what lets the bulk loader import documents
// larger than RAM in a single pass.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// EventKind classifies streaming parse events.
type EventKind uint8

// Streaming events. Comments, PIs and the DOCTYPE produce none: they are
// not part of the logical tree. (The parser keeps the DOCTYPE's name and
// body for Parse, which hands them on in its Document.)
const (
	EventStart EventKind = iota // element open: Name, Attrs
	EventEnd                    // element close: Name
	EventText                   // character data run (or a chunk of one)
)

// String returns a readable name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "Start"
	case EventEnd:
		return "End"
	case EventText:
		return "Text"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one structural parse event.
type Event struct {
	Kind  EventKind
	Name  string // element name (Start/End)
	Text  string // character data (Text)
	Attrs []Attr // attributes (Start)
	// Cont marks a Text event that continues the same character-data
	// token as the previous Text event (a long run split for memory).
	// Consumers that must reproduce token boundaries exactly (the bulk
	// loader chunking text into literals) join Cont chunks; Cont=false
	// starts a new token — distinct tokens (text vs. an adjacent CDATA
	// section) stay distinct nodes, as Parse stores them.
	Cont bool
}

const (
	// streamChunk is the read granularity.
	streamChunk = 32 << 10
	// textSplitLimit is the largest single Text event: longer character
	// runs are emitted as several consecutive Text events so the parser's
	// memory stays bounded by the window, not by the run. Consumers that
	// concatenate adjacent text (the bulk loader, TextContent) see no
	// difference.
	textSplitLimit = 64 << 10
	// maxEntityLen bounds an encoded entity reference ("&#x10FFFF;" and
	// the named entities all fit); a split never cuts closer than this to
	// a trailing '&' so no entity is torn across Text events.
	maxEntityLen = 12
)

// StreamParser yields the events of one XML document in document order.
// Next returns io.EOF after the root element has closed and only
// ignorable content remains.
type StreamParser struct {
	r    io.Reader
	opts ParseOptions

	buf  []byte // unconsumed window; buf[0] is absolute offset base
	pos  int    // consumed prefix of buf
	base int    // absolute offset of buf[0]
	line int    // line number at pos
	eof  bool   // reader exhausted

	stack    []string          // open elements
	names    map[string]string // interned element/attribute names
	rootSeen bool
	pending  []Event // queued events (empty-tag close, held text chunks)

	// Text-run state. A "run" is one character-data token — a stretch of
	// plain text up to the next markup, or one CDATA section — possibly
	// split into several chunks for memory. Whitespace-only chunks are
	// held back until the run proves non-whitespace, so a split run is
	// dropped or kept exactly as the whole token would be.
	inText   bool
	inCData  bool     // consuming a CDATA section across Next calls
	textHeld []string // decoded chunks, all whitespace so far
	textKeep bool     // run has contained non-whitespace
	runCont  bool     // run has emitted at least one event

	// The last DOCTYPE read: its name and its whole trimmed body (name
	// plus internal subset), for consumers that parse content models.
	doctypeName, doctypeRaw string
}

// byteOrderMark is UTF-8's; a document may start with it.
const byteOrderMark = "\xef\xbb\xbf"

// NewStreamParser returns a pull parser over r.
func NewStreamParser(r io.Reader, opts ParseOptions) *StreamParser {
	return &StreamParser{r: r, opts: opts, line: 1}
}

// errf builds a positioned syntax error.
func (p *StreamParser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.base + p.pos, Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// fill reads one more chunk, compacting the consumed prefix first.
// Returns false when the reader is exhausted.
func (p *StreamParser) fill() (bool, error) {
	if p.eof {
		return false, nil
	}
	if p.pos > 0 {
		n := copy(p.buf, p.buf[p.pos:])
		p.buf = p.buf[:n]
		p.base += p.pos
		p.pos = 0
	}
	off := len(p.buf)
	// Grow by reslicing into existing capacity: after the first chunk the
	// compacted buffer almost always has room, so the read lands straight
	// in place with no allocation, zeroing or copy.
	if cap(p.buf)-off < streamChunk {
		nb := make([]byte, off, off+streamChunk)
		copy(nb, p.buf)
		p.buf = nb
	}
	p.buf = p.buf[:off+streamChunk]
	n, err := io.ReadFull(p.r, p.buf[off:])
	p.buf = p.buf[:off+n]
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		p.eof = true
	default:
		return false, fmt.Errorf("xmlkit: read input: %w", err)
	}
	if p.base == 0 && off == 0 && hasPrefix(p.buf, byteOrderMark) {
		p.pos = len(byteOrderMark) // the first read: skip a byte-order mark
	}
	return n > 0, nil
}

// rest returns the unconsumed window.
func (p *StreamParser) rest() []byte { return p.buf[p.pos:] }

// advance consumes n bytes, tracking lines.
func (p *StreamParser) advance(n int) {
	p.line += bytes.Count(p.buf[p.pos:p.pos+n], newlineByte)
	p.pos += n
}

var newlineByte = []byte{'\n'}

// intern returns b as a string, reusing the previously allocated copy
// for names seen before. Element and attribute names repeat massively in
// real documents, so tag parsing ends up allocation-free in the steady
// state (the map lookup on a []byte key does not allocate).
func (p *StreamParser) intern(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	if p.names == nil {
		p.names = make(map[string]string, 32)
	}
	s := string(b)
	p.names[s] = s
	return s
}

// ensure makes at least n unconsumed bytes available, if the input has
// them.
func (p *StreamParser) ensure(n int) error {
	for len(p.rest()) < n && !p.eof {
		if _, err := p.fill(); err != nil {
			return err
		}
	}
	return nil
}

// indexFrom finds needle in the window at or after the current position,
// refilling until found or EOF. It returns the offset relative to pos,
// or -1 at EOF.
func (p *StreamParser) indexFrom(needle string) (int, error) {
	from := 0
	for {
		win := p.rest()
		start := from - (len(needle) - 1)
		if start < 0 {
			start = 0
		}
		if i := bytes.Index(win[start:], []byte(needle)); i >= 0 {
			return start + i, nil
		}
		from = len(win)
		more, err := p.fill()
		if err != nil {
			return 0, err
		}
		if !more {
			return -1, nil
		}
	}
}

// Next returns the next structural event, or io.EOF at the end of the
// document. After any non-nil error the parser must not be used again.
func (p *StreamParser) Next() (Event, error) {
	if len(p.pending) > 0 {
		ev := p.pending[0]
		p.pending = p.pending[1:]
		return ev, nil
	}
	for {
		if p.inCData {
			ev, ok, err := p.scanCDataChunk()
			if err != nil {
				return Event{}, err
			}
			if ok {
				return ev, nil
			}
			continue
		}
		if err := p.ensure(1); err != nil {
			return Event{}, err
		}
		if len(p.rest()) == 0 {
			// True end of input.
			if err := p.flushTextRun(); err != nil {
				return Event{}, err
			}
			if len(p.pending) > 0 {
				return p.Next()
			}
			if len(p.stack) > 0 {
				return Event{}, p.errf("unclosed element <%s>", p.stack[len(p.stack)-1])
			}
			if !p.rootSeen {
				return Event{}, p.errf("document has no root element")
			}
			return Event{}, io.EOF
		}
		if p.rest()[0] != '<' {
			ev, ok, err := p.scanTextChunk()
			if err != nil {
				return Event{}, err
			}
			if ok {
				return ev, nil
			}
			continue // chunk held back or dropped
		}
		// Markup: a text run (if any) ends here.
		if err := p.flushTextRun(); err != nil {
			return Event{}, err
		}
		if len(p.pending) > 0 {
			return p.Next()
		}
		ev, ok, err := p.scanMarkup()
		if err != nil {
			return Event{}, err
		}
		if ok {
			return ev, nil
		}
	}
}

// ReadBatch fills dst with the next events of the document and returns
// how many it produced. It returns 0, io.EOF at the end of the document
// (never events alongside an error). Batching amortizes the per-call
// overhead when events are handed across a pipeline stage boundary.
func (p *StreamParser) ReadBatch(dst []Event) (int, error) {
	n := 0
	for n < len(dst) {
		ev, err := p.Next()
		if err == io.EOF {
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		if err != nil {
			return 0, err
		}
		dst[n] = ev
		n++
	}
	return n, nil
}

// scanMarkup consumes one markup construct starting at '<'. ok is false
// for constructs that produce no event (comments, PIs, DOCTYPE).
func (p *StreamParser) scanMarkup() (Event, bool, error) {
	if err := p.ensure(9); err != nil { // len("<![CDATA[")
		return Event{}, false, err
	}
	rest := p.rest()
	switch {
	case hasPrefix(rest, "<!--"):
		return Event{}, false, p.skipUntil("<!--", "-->", "unterminated comment")
	case hasPrefix(rest, "<![CDATA["):
		return p.scanCDataStream()
	case hasPrefix(rest, "<!DOCTYPE"):
		return Event{}, false, p.scanDoctype()
	case hasPrefix(rest, "<?"):
		return Event{}, false, p.skipUntil("<?", "?>", "unterminated processing instruction")
	case hasPrefix(rest, "</"):
		return p.scanEndTagStream()
	default:
		return p.scanStartTagStream()
	}
}

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// skipUntil consumes an open..close construct producing no event.
func (p *StreamParser) skipUntil(open, close, msg string) error {
	p.advance(len(open))
	i, err := p.indexFrom(close)
	if err != nil {
		return err
	}
	if i < 0 {
		return p.errf("%s", msg)
	}
	p.advance(i + len(close))
	return nil
}

// scanDoctype consumes <!DOCTYPE ...> with a bracketed internal subset,
// keeping its name and body.
func (p *StreamParser) scanDoctype() error {
	p.advance(len("<!DOCTYPE"))
	depth := 0
	from := 0
	for {
		win := p.rest()
		for i := from; i < len(win); i++ {
			switch win[i] {
			case '[':
				depth++
			case ']':
				depth--
			case '>':
				if depth <= 0 {
					p.doctypeRaw = strings.TrimSpace(string(win[:i]))
					p.doctypeName = p.doctypeRaw
					if j := strings.IndexAny(p.doctypeRaw, " \t\r\n["); j >= 0 {
						p.doctypeName = p.doctypeRaw[:j]
					}
					p.advance(i + 1)
					return nil
				}
			}
		}
		from = len(win)
		more, err := p.fill()
		if err != nil {
			return err
		}
		if !more {
			return p.errf("unterminated DOCTYPE")
		}
	}
}

// scanCDataStream enters a CDATA section. The section is its own
// character-data token: it was preceded by a run flush (all markup is),
// and scanCDataChunk closes the run at "]]>", so its whitespace-only
// fate is decided independently of adjacent text, as each token's is.
func (p *StreamParser) scanCDataStream() (Event, bool, error) {
	p.advance(len("<![CDATA["))
	p.inCData = true
	return Event{}, false, nil
}

// scanCDataChunk consumes CDATA content from the window: up to the
// terminator, or a split-limit-sized chunk of an oversized section (so
// memory stays bounded by the window, not the section).
func (p *StreamParser) scanCDataChunk() (Event, bool, error) {
	for {
		win := p.rest()
		if i := bytes.Index(win, []byte("]]>")); i >= 0 {
			body := string(win[:i])
			p.advance(i + len("]]>"))
			p.inCData = false
			ev, ok, err := p.acceptText(body)
			if err != nil {
				return Event{}, false, err
			}
			if ferr := p.flushTextRun(); ferr != nil {
				return Event{}, false, ferr
			}
			if ok {
				return ev, true, nil
			}
			return p.popPending()
		}
		if len(win) >= textSplitLimit {
			// Hold the last two bytes back: they may be the "]]" of a
			// terminator straddling the chunk edge.
			body := string(win[:len(win)-2])
			p.advance(len(win) - 2)
			return p.acceptText(body)
		}
		more, err := p.fill()
		if err != nil {
			return Event{}, false, err
		}
		if !more {
			return Event{}, false, p.errf("unterminated CDATA section")
		}
	}
}

// popPending dequeues one queued event, if any.
func (p *StreamParser) popPending() (Event, bool, error) {
	if len(p.pending) == 0 {
		return Event{}, false, nil
	}
	ev := p.pending[0]
	p.pending = p.pending[1:]
	return ev, true, nil
}

// scanTextChunk consumes character data up to the next '<' or the split
// limit. ok reports whether an event is ready (chunks may be held back
// while a run is still all-whitespace).
func (p *StreamParser) scanTextChunk() (Event, bool, error) {
	var raw []byte
	for {
		win := p.rest()
		if i := indexByte(win, '<'); i >= 0 {
			raw = win[:i]
			break
		}
		if len(win) >= textSplitLimit {
			cut := len(win)
			// Never cut inside an entity reference: back off to before a
			// trailing '&' that has not seen its ';'.
			for k := cut - 1; k >= cut-maxEntityLen && k >= 0; k-- {
				if win[k] == ';' {
					break
				}
				if win[k] == '&' {
					cut = k
					break
				}
			}
			if cut == 0 {
				cut = len(win) // lone '&' run: let DecodeEntities reject it
			}
			raw = win[:cut]
			break
		}
		more, err := p.fill()
		if err != nil {
			return Event{}, false, err
		}
		if !more {
			raw = p.rest()
			break
		}
	}
	text, err := DecodeEntities(string(raw))
	if err != nil {
		return Event{}, false, p.errf("%v", err)
	}
	p.advance(len(raw))
	return p.acceptText(text)
}

// emitTextEvent queues one chunk of the current run, stamping Cont.
func (p *StreamParser) emitTextEvent(text string) {
	p.pending = append(p.pending, Event{Kind: EventText, Text: text, Cont: p.runCont})
	p.runCont = true
}

// acceptText feeds one decoded chunk into the text-run state.
func (p *StreamParser) acceptText(text string) (Event, bool, error) {
	p.inText = true
	if !p.textKeep && strings.TrimSpace(text) == "" {
		p.textHeld = append(p.textHeld, text)
		return Event{}, false, nil
	}
	if len(p.stack) == 0 {
		return Event{}, false, p.errf("text %q outside the root element", truncate(strings.TrimSpace(text), 20))
	}
	if !p.textKeep {
		p.textKeep = true
		// Release the held whitespace prefix ahead of this chunk.
		for _, h := range p.textHeld {
			p.emitTextEvent(h)
		}
		p.textHeld = nil
	}
	if len(p.pending) == 0 {
		// Common case: nothing queued ahead — hand the chunk straight
		// back instead of round-tripping it through the pending queue.
		ev := Event{Kind: EventText, Text: text, Cont: p.runCont}
		p.runCont = true
		return ev, true, nil
	}
	p.emitTextEvent(text)
	return p.popPending()
}

// flushTextRun ends the current character-data token: a run that stayed
// whitespace-only is dropped (or emitted whole under KeepWhitespace,
// when inside the root).
func (p *StreamParser) flushTextRun() error {
	if !p.inText {
		return nil
	}
	p.inText = false
	held := p.textHeld
	p.textHeld = nil
	keep := p.textKeep
	p.textKeep = false
	if !keep && p.opts.KeepWhitespace && len(p.stack) > 0 {
		for _, h := range held {
			p.emitTextEvent(h)
		}
	}
	p.runCont = false
	return nil
}

// scanEndTagStream consumes </name>.
func (p *StreamParser) scanEndTagStream() (Event, bool, error) {
	p.advance(len("</"))
	i, err := p.indexFrom(">")
	if err != nil {
		return Event{}, false, err
	}
	if i < 0 {
		return Event{}, false, p.errf("unterminated end tag")
	}
	nameB := bytes.TrimSpace(p.rest()[:i])
	// Fast path: a well-formed document's end tag matches the innermost
	// open element, whose (already validated, interned) name is on the
	// stack — one byte comparison, no lookup, no allocation.
	if len(p.stack) > 0 && string(nameB) == p.stack[len(p.stack)-1] {
		p.advance(i + 1)
		name := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		return Event{Kind: EventEnd, Name: name}, true, nil
	}
	if !validName(nameB) {
		return Event{}, false, p.errf("invalid end tag name %q", nameB)
	}
	name := p.intern(nameB)
	p.advance(i + 1)
	if len(p.stack) == 0 {
		return Event{}, false, p.errf("unexpected </%s>", name)
	}
	return Event{}, false, p.errf("</%s> closes <%s>", name, p.stack[len(p.stack)-1])
}

// scanStartTagStream consumes <name attr="v"...> or <name/>, ensuring
// the whole tag is buffered first (tags are small; text is what gets
// big).
func (p *StreamParser) scanStartTagStream() (Event, bool, error) {
	// Quoted attribute values may contain '>': scan with quote awareness,
	// extending the window until the real tag end is inside it.
	var end int
	for {
		win := p.rest()
		real := tagEnd(win)
		if real >= 0 {
			end = real
			break
		}
		more, err := p.fill()
		if err != nil {
			return Event{}, false, err
		}
		if !more {
			return Event{}, false, p.errf("unterminated start tag")
		}
	}

	tag := p.rest()[:end] // without '>'
	empty := len(tag) > 0 && tag[len(tag)-1] == '/'
	body := tag[1:] // without '<'
	if empty {
		body = body[:len(body)-1]
	}
	name, attrs, perr := p.parseTagBody(body)
	if perr != nil {
		return Event{}, false, p.errf("%v", perr)
	}
	p.advance(end + 1)

	if len(p.stack) == 0 {
		if p.rootSeen {
			return Event{}, false, p.errf("multiple root elements")
		}
		p.rootSeen = true
	}
	if !empty {
		p.stack = append(p.stack, name)
	} else {
		p.pending = append(p.pending, Event{Kind: EventEnd, Name: name})
	}
	return Event{Kind: EventStart, Name: name, Attrs: attrs}, true, nil
}

// tagEnd returns the offset of the '>' closing the tag at win[0] == '<',
// skipping quoted attribute values; -1 if not in the window.
func tagEnd(win []byte) int {
	var quote byte
	for i := 0; i < len(win); i++ {
		c := win[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '>':
			return i
		}
	}
	return -1
}

// parseTagBody parses `name attr="v" ...` (no angle brackets, no
// trailing slash) straight out of the read window; element and attribute
// names are interned, so in the steady state only attribute values (and
// the Attrs slice itself) allocate.
func (p *StreamParser) parseTagBody(body []byte) (string, []Attr, error) {
	i := 0
	for i < len(body) && isNameByte(body[i]) {
		i++
	}
	if !validName(body[:i]) {
		return "", nil, fmt.Errorf("invalid tag name %q", body[:i])
	}
	name := p.intern(body[:i])
	var attrs []Attr
	for {
		for i < len(body) && isSpace(body[i]) {
			i++
		}
		if i >= len(body) {
			return name, attrs, nil
		}
		astart := i
		for i < len(body) && isNameByte(body[i]) {
			i++
		}
		if !validName(body[astart:i]) {
			return "", nil, fmt.Errorf("invalid attribute name in <%s>", name)
		}
		aname := p.intern(body[astart:i])
		for i < len(body) && isSpace(body[i]) {
			i++
		}
		if i >= len(body) || body[i] != '=' {
			return "", nil, fmt.Errorf("attribute %q in <%s> missing '='", aname, name)
		}
		i++
		for i < len(body) && isSpace(body[i]) {
			i++
		}
		if i >= len(body) || (body[i] != '"' && body[i] != '\'') {
			return "", nil, fmt.Errorf("attribute %q in <%s> missing quoted value", aname, name)
		}
		q := body[i]
		i++
		vstart := i
		for i < len(body) && body[i] != q {
			i++
		}
		if i >= len(body) {
			return "", nil, fmt.Errorf("unterminated value for attribute %q in <%s>", aname, name)
		}
		val, err := DecodeEntities(string(body[vstart:i]))
		if err != nil {
			return "", nil, fmt.Errorf("attribute %q in <%s>: %v", aname, name, err)
		}
		attrs = append(attrs, Attr{Name: aname, Value: val})
		i++
	}
}

func indexByte(b []byte, c byte) int { return bytes.IndexByte(b, c) }
