package noderep

import (
	"encoding/binary"
	"fmt"
	"math"

	"natix/internal/dict"
	"natix/internal/records"
)

// Typed literal helpers. Appendix A: "Literals are typed, currently
// either string literals, 8/16/32/64-bit integer literals, float, or URI
// (Uniform Resource Identifier) literals."

// NewIntLiteral builds the smallest integer literal that can hold v.
func NewIntLiteral(label dict.LabelID, v int64) *Node {
	switch {
	case v >= math.MinInt8 && v <= math.MaxInt8:
		return NewLiteral(label, LitInt8, []byte{byte(int8(v))})
	case v >= math.MinInt16 && v <= math.MaxInt16:
		b := make([]byte, 2)
		binary.LittleEndian.PutUint16(b, uint16(int16(v)))
		return NewLiteral(label, LitInt16, b)
	case v >= math.MinInt32 && v <= math.MaxInt32:
		b := make([]byte, 4)
		binary.LittleEndian.PutUint32(b, uint32(int32(v)))
		return NewLiteral(label, LitInt32, b)
	default:
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(v))
		return NewLiteral(label, LitInt64, b)
	}
}

// NewFloatLiteral builds a 64-bit float literal.
func NewFloatLiteral(label dict.LabelID, v float64) *Node {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return NewLiteral(label, LitFloat64, b)
}

// NewURILiteral builds a URI literal.
func NewURILiteral(label dict.LabelID, uri string) *Node {
	return NewLiteral(label, LitURI, []byte(uri))
}

// NewLongStringLiteral builds an overflow literal referencing a blob.
func NewLongStringLiteral(label dict.LabelID, blob records.RID) *Node {
	payload := make([]byte, records.RIDSize)
	blob.Put(payload)
	return NewLiteral(label, LitLongString, payload)
}

// IntValue decodes an integer literal.
func (n *Node) IntValue() (int64, error) {
	if n.Kind != KindLiteral {
		return 0, fmt.Errorf("%w: IntValue on %s", ErrBadNode, n.Kind)
	}
	switch n.LitType {
	case LitInt8:
		if len(n.Payload) != 1 {
			return 0, fmt.Errorf("%w: int8 payload %d bytes", ErrBadNode, len(n.Payload))
		}
		return int64(int8(n.Payload[0])), nil
	case LitInt16:
		if len(n.Payload) != 2 {
			return 0, fmt.Errorf("%w: int16 payload %d bytes", ErrBadNode, len(n.Payload))
		}
		return int64(int16(binary.LittleEndian.Uint16(n.Payload))), nil
	case LitInt32:
		if len(n.Payload) != 4 {
			return 0, fmt.Errorf("%w: int32 payload %d bytes", ErrBadNode, len(n.Payload))
		}
		return int64(int32(binary.LittleEndian.Uint32(n.Payload))), nil
	case LitInt64:
		if len(n.Payload) != 8 {
			return 0, fmt.Errorf("%w: int64 payload %d bytes", ErrBadNode, len(n.Payload))
		}
		return int64(binary.LittleEndian.Uint64(n.Payload)), nil
	default:
		return 0, fmt.Errorf("%w: IntValue on literal type %d", ErrBadNode, n.LitType)
	}
}

// FloatValue decodes a float literal.
func (n *Node) FloatValue() (float64, error) {
	if n.Kind != KindLiteral || n.LitType != LitFloat64 {
		return 0, fmt.Errorf("%w: FloatValue on kind %s type %d", ErrBadNode, n.Kind, n.LitType)
	}
	if len(n.Payload) != 8 {
		return 0, fmt.Errorf("%w: float payload %d bytes", ErrBadNode, len(n.Payload))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(n.Payload)), nil
}

// StringValue decodes a string or URI literal.
func (n *Node) StringValue() (string, error) {
	b, err := n.StringBytes()
	return string(b), err
}

// StringBytes is StringValue without the copy: the payload of a string
// or URI literal, which the caller must not modify.
func (n *Node) StringBytes() ([]byte, error) {
	return StringPayload(n.Kind, n.LitType, n.Payload)
}

// StringPayload is StringBytes for a node given by its kind, literal
// type and payload — for one read out of an image (Image), a substring.
func StringPayload[P ~[]byte | ~string](kind Kind, lt LitType, payload P) (P, error) {
	var none P
	if kind != KindLiteral {
		return none, fmt.Errorf("%w: StringValue on %s", ErrBadNode, kind)
	}
	if !IsStringType(lt) {
		return none, fmt.Errorf("%w: StringValue on literal type %d", ErrBadNode, lt)
	}
	return payload, nil
}

// IsStringType reports whether literals of type lt hold character data.
func IsStringType(lt LitType) bool { return lt == LitString || lt == LitURI }

// BlobID decodes the blob reference of an overflow literal.
func (n *Node) BlobID() (records.RID, error) {
	if n.Kind != KindLiteral || n.LitType != LitLongString {
		return records.NilRID, fmt.Errorf("%w: BlobID on kind %s type %d", ErrBadNode, n.Kind, n.LitType)
	}
	if len(n.Payload) != records.RIDSize {
		return records.NilRID, fmt.Errorf("%w: overflow payload %d bytes", ErrBadNode, len(n.Payload))
	}
	return records.DecodeRID(n.Payload), nil
}
