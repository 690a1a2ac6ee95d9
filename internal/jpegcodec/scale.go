package jpegcodec

import (
	"errors"
	"fmt"
)

// Scale selects decode-to-scale: the image is reconstructed directly at
// a fraction of its coded resolution by scaled inverse transforms
// (8x8 -> 4x4 -> 2x2 -> DC-only 1x1), never by decoding full-size and
// shrinking. The zero value means full size, so existing Options values
// keep their meaning.
type Scale int

// The supported scale denominators.
const (
	Scale1 Scale = 1 // full size (the zero value also means full size)
	Scale2 Scale = 2 // 1/2 on each axis
	Scale4 Scale = 4 // 1/4
	Scale8 Scale = 8 // 1/8: DC-only reconstruction
)

// ErrUnsupportedScale marks a decode request whose Scale is not one of
// {1, 1/2, 1/4, 1/8}. Check it with errors.Is; it is a caller-parameter
// error (the stream itself is not inspected), distinct from
// jfif.ErrUnsupported which marks streams using out-of-scope features.
var ErrUnsupportedScale = errors.New("jpegcodec: unsupported scale")

// Denominator returns the scale's denominator, mapping the zero value
// to 1. The result is meaningful only for valid scales.
func (s Scale) Denominator() int {
	if s == 0 {
		return 1
	}
	return int(s)
}

// Validate checks that s is one of the supported scales, returning an
// ErrUnsupportedScale-wrapping error otherwise.
func (s Scale) Validate() error {
	switch s {
	case 0, Scale1, Scale2, Scale4, Scale8:
		return nil
	}
	return fmt.Errorf("%w: %d (want 1, 2, 4 or 8)", ErrUnsupportedScale, int(s))
}

// String formats the scale as its conventional fraction ("1", "1/2",
// "1/4", "1/8").
func (s Scale) String() string {
	if d := s.Denominator(); d == 1 {
		return "1"
	}
	return fmt.Sprintf("1/%d", int(s))
}

// ParseScale maps a scale name to its Scale; ok is false for unknown
// names. Accepted spellings are the fractions "1", "1/2", "1/4", "1/8"
// and the bare denominators "2", "4", "8"; the empty string parses as
// full size. Frontends (CLI flag, imaged query parameter) parse with
// this so the name set has one authoritative site.
func ParseScale(name string) (Scale, bool) {
	switch name {
	case "", "1", "1/1":
		return Scale1, true
	case "2", "1/2":
		return Scale2, true
	case "4", "1/4":
		return Scale4, true
	case "8", "1/8":
		return Scale8, true
	}
	return Scale1, false
}
