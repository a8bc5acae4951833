package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"mira/internal/ir"
)

// Value is a scalar the interpreter computes with: an int64 or a float64.
type Value struct {
	I     int64
	F     float64
	Float bool
}

// IntV builds an integer value.
func IntV(i int64) Value { return Value{I: i} }

// FloatV builds a floating-point value.
func FloatV(f float64) Value { return Value{F: f, Float: true} }

// AsInt converts to int64 (truncating floats).
func (v Value) AsInt() int64 {
	if v.Float {
		return int64(v.F)
	}
	return v.I
}

// AsFloat converts to float64.
func (v Value) AsFloat() float64 {
	if v.Float {
		return v.F
	}
	return float64(v.I)
}

// Truthy reports whether the value is non-zero.
func (v Value) Truthy() bool {
	if v.Float {
		return v.F != 0
	}
	return v.I != 0
}

func (v Value) String() string {
	if v.Float {
		return fmt.Sprintf("%g", v.F)
	}
	return fmt.Sprintf("%d", v.I)
}

// scalar is how a field's bytes become a Value and back: the widths the
// interpreter's int64/float64 registers can carry.
type scalar uint8

const (
	scInt8 scalar = iota
	scInt16
	scInt32
	scInt64
	scFloat64
)

// codecOf picks f's codec, or says why a Load or Store of f cannot execute.
func codecOf(f ir.Field) (scalar, error) {
	if f.Float {
		if f.Bytes != 8 {
			return 0, fmt.Errorf("exec: float field %q must be 8 bytes, got %d", f.Name, f.Bytes)
		}
		return scFloat64, nil
	}
	switch f.Bytes {
	case 1:
		return scInt8, nil
	case 2:
		return scInt16, nil
	case 4:
		return scInt32, nil
	case 8:
		return scInt64, nil
	default:
		return 0, fmt.Errorf("exec: unsupported integer field width %d", f.Bytes)
	}
}

// decode interprets buf (the field's bytes) as a Value.
func (c scalar) decode(buf []byte) Value {
	switch c {
	case scInt8:
		return IntV(int64(int8(buf[0])))
	case scInt16:
		return IntV(int64(int16(binary.LittleEndian.Uint16(buf))))
	case scInt32:
		return IntV(int64(int32(binary.LittleEndian.Uint32(buf))))
	case scInt64:
		return IntV(int64(binary.LittleEndian.Uint64(buf)))
	default:
		return FloatV(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
	}
}

// encode writes v into buf (the field's bytes).
func (c scalar) encode(v Value, buf []byte) {
	switch c {
	case scInt8:
		buf[0] = byte(v.AsInt())
	case scInt16:
		binary.LittleEndian.PutUint16(buf, uint16(v.AsInt()))
	case scInt32:
		binary.LittleEndian.PutUint32(buf, uint32(v.AsInt()))
	case scInt64:
		binary.LittleEndian.PutUint64(buf, uint64(v.AsInt()))
	default:
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v.AsFloat()))
	}
}
