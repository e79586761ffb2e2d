// Package xmlkit is a self-contained XML toolkit: one streaming parser
// (StreamParser), the tree Parse builds from its events, and a
// serializer.
//
// The paper's experiments drive NATIX through "an XML parser written in
// C" (§4.3); this package plays that role. It covers the XML subset
// needed for document storage — elements, attributes, character data,
// CDATA, comments, processing instructions, DOCTYPE with an internal
// subset, and the predefined/numeric entities. It does not implement
// namespaces or external DTD resolution, which the paper does not use.
package xmlkit

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Attr is a name="value" attribute.
type Attr struct {
	Name  string
	Value string
}

// SyntaxError reports a malformed document with a byte offset and line.
type SyntaxError struct {
	Offset int
	Line   int
	Msg    string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlkit: line %d (offset %d): %s", e.Line, e.Offset, e.Msg)
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}

func isNameByte(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	case b == '-', b == '_', b == '.', b == ':':
		return true
	case b >= 0x80: // multi-byte UTF-8 names are accepted verbatim
		return true
	}
	return false
}

func validName(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	c := s[0]
	if c >= '0' && c <= '9' || c == '-' || c == '.' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameByte(s[i]) {
			return false
		}
	}
	return true
}

// errBadEntity is wrapped into SyntaxErrors by the parser.
var errBadEntity = errors.New("invalid entity reference")

// DecodeEntities replaces the predefined and numeric character entities
// in s. A bare '&' that does not form a valid entity is an error.
func DecodeEntities(s string) (string, error) {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		b.WriteString(s[:amp])
		s = s[amp:]
		semi := strings.IndexByte(s, ';')
		if semi < 0 || semi > 12 {
			return "", fmt.Errorf("%w near %q", errBadEntity, truncate(s, 12))
		}
		ent := s[1:semi]
		switch ent {
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "amp":
			b.WriteByte('&')
		case "apos":
			b.WriteByte('\'')
		case "quot":
			b.WriteByte('"')
		default:
			if len(ent) > 1 && ent[0] == '#' {
				digits, base := ent[1:], 10
				if len(digits) > 1 && (digits[0] == 'x' || digits[0] == 'X') {
					digits, base = digits[1:], 16
				}
				n, err := strconv.ParseUint(digits, base, 32)
				if err != nil {
					return "", fmt.Errorf("%w: &%s;", errBadEntity, ent)
				}
				b.WriteRune(rune(n))
			} else {
				return "", fmt.Errorf("%w: &%s;", errBadEntity, ent)
			}
		}
		s = s[semi+1:]
		amp = strings.IndexByte(s, '&')
		if amp < 0 {
			b.WriteString(s)
			return b.String(), nil
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
