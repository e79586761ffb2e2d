package xmlkit

import (
	"io"
	"strings"
)

// markup flags the bytes that cannot stand for themselves in character
// data; the quote only matters inside an attribute value.
var markup = [256]bool{'<': true, '>': true, '&': true, '"': true}

// appendEscaped appends s to dst with the markup characters <, > and &
// replaced by their entity references and, for a double-quoted attribute
// value, " as well. It is the one escape routine behind EscapeText,
// EscapeAttr, Serialize and the store's streaming writer, so the two
// serialisers cannot drift. Text is mostly runs with nothing to escape,
// so it is scanned eight bytes at a time (clean8), a tail shorter than
// eight as part of the last eight, and byte by byte only around a byte
// that may need escaping.
func appendEscaped[S ~string | ~[]byte](dst []byte, s S, attr bool) []byte {
	run := 0 // start of the pending unescaped run
	for i := 0; i < len(s); i++ {
		for i+8 <= len(s) && clean8(load8(s, i)) {
			i += 8
		}
		if i+8 > len(s) && len(s) >= 8 && clean8(load8(s, len(s)-8)) {
			break // what is left lies in the last eight bytes, all clean
		}
		if i == len(s) || !markup[s[i]] {
			continue
		}
		var esc string
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		default:
			if !attr {
				continue
			}
			esc = "&quot;"
		}
		dst = append(dst, s[run:i]...)
		dst = append(dst, esc...)
		run = i + 1
	}
	return append(dst, s[run:]...)
}

// clean8 reports whether none of the eight bytes of x is a markup
// character. A byte b is '<' or '>' exactly when b|2 is '>', and '&' or
// '"' exactly when b|4 is '&'; so x holds none when neither x|2 xor '>'s
// nor x|4 xor '&'s has a zero byte.
func clean8(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	a := (x | 2*ones) ^ '>'*ones
	b := (x | 4*ones) ^ '&'*ones
	return ((a-ones)&^a|(b-ones)&^b)&highs == 0
}

// load8 reads the eight bytes of s at i, little-endian; i+8 <= len(s).
func load8[S ~string | ~[]byte](s S, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// IsCleanText reports whether s holds none of the characters
// AppendEscapedText escapes, so that it would append s unchanged.
func IsCleanText[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		for i+8 <= len(s) && clean8(load8(s, i)) {
			i += 8
		}
		if i < len(s) && markup[s[i]] && s[i] != '"' {
			return false
		}
	}
	return true
}

// AppendEscapedText appends character data, escaped for element
// content, to dst.
func AppendEscapedText[S ~string | ~[]byte](dst []byte, s S) []byte {
	return appendEscaped(dst, s, false)
}

// AppendEscapedAttr appends an attribute value, escaped for
// double-quoted output, to dst.
func AppendEscapedAttr[S ~string | ~[]byte](dst []byte, s S) []byte {
	return appendEscaped(dst, s, true)
}

// EscapeText escapes character data for element content.
func EscapeText(s string) string {
	if IsCleanText(s) {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+8), s, false))
}

// EscapeAttr escapes an attribute value for double-quoted output.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, `<>&"`) {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+8), s, true))
}

// serializeChunk is how much markup Serialize gathers before handing it
// to the writer.
const serializeChunk = 32 << 10

// Serialize writes the subtree rooted at n as XML markup. No whitespace
// is invented, so Parse(Serialize(t)) reproduces t exactly. The markup
// is appended to one buffer that is handed to w each time it passes
// serializeChunk bytes, so w sees a few large writes whatever it is.
func Serialize(w io.Writer, n *Node) error {
	buf, err := appendNode(nil, n, w)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// SerializeString renders the subtree to a string.
func SerializeString(n *Node) string {
	buf, _ := appendNode(nil, n, nil) // no writer, no error
	return string(buf)
}

// appendNode appends n's markup to buf. With a writer it empties buf
// into w after any node that leaves it at serializeChunk bytes or more;
// with w nil the whole markup stays in buf.
func appendNode(buf []byte, n *Node, w io.Writer) ([]byte, error) {
	if n.IsText() {
		return appendEscaped(buf, n.Text, false), nil
	}
	buf = append(buf, '<')
	buf = append(buf, n.Name...)
	for _, a := range n.Attrs {
		buf = append(buf, ' ')
		buf = append(buf, a.Name...)
		buf = append(buf, `="`...)
		buf = appendEscaped(buf, a.Value, true)
		buf = append(buf, '"')
	}
	if len(n.Children) == 0 {
		return append(buf, "/>"...), nil
	}
	buf = append(buf, '>')
	for _, c := range n.Children {
		var err error
		if buf, err = appendNode(buf, c, w); err != nil {
			return buf, err
		}
	}
	buf = append(buf, "</"...)
	buf = append(buf, n.Name...)
	buf = append(buf, '>')
	if w != nil && len(buf) >= serializeChunk {
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		buf = buf[:0]
	}
	return buf, nil
}
