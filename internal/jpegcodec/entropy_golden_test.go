package jpegcodec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// The entropy fault golden pins what the entropy stage hands to later
// stages, stream by stream, over the differential corpus (the clean
// conformance mirror, the fault-injection families and the truncation
// sweep): the error text, the salvage report and digests of BitsPerRow
// and of the coefficients and sparsity watermarks, through the probe
// loops and the general path alone, strict and salvage, at scales 1 and
// 1/8, plus the restart-parallel decoder at one and four workers on
// every baseline stream with a restart interval. Regenerate it only for
// an intended change of the entropy stage's output:
//
//	go test ./internal/jpegcodec -run TestEntropyFaultGolden -update

const entropyGoldenPath = "testdata/entropy_fault_golden.txt"

// digest is a short SHA-256 of int32, uint8 and int64 slices, each
// value little-endian.
func digest(vs ...any) string {
	b := make([]byte, 0, 1<<16)
	for _, v := range vs {
		switch v := v.(type) {
		case []int32:
			for _, x := range v {
				b = binary.LittleEndian.AppendUint32(b, uint32(x))
			}
		case []uint8:
			b = append(b, v...)
		case []int64:
			for _, x := range v {
				b = binary.LittleEndian.AppendUint64(b, uint64(x))
			}
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func (o entropyOutcome) golden() string {
	res := "ok"
	if o.err != "" {
		res = o.err
	}
	var cz []any
	for c := range o.coeff {
		cz = append(cz, o.coeff[c], o.nz[c])
	}
	return fmt.Sprintf("%s | %s | bits %s coef %s", res, o.report, digest(o.bitsPerRow), digest(cz...))
}

// restartParallelGolden decodes data strictly through
// DecodeAllParallelRestart on w workers; ok is false when the stream
// fails before the entropy stage or has no restart interval.
func restartParallelGolden(data []byte, scale Scale, w int) (line string, ok bool) {
	f, _, err := PrepareDecodeScaled(data, scale)
	if err != nil {
		return "", false
	}
	defer f.Release()
	if f.Img.Progressive || f.Img.RestartInterval == 0 {
		return "", false
	}
	bits, err := DecodeAllParallelRestart(f, w)
	if err != nil {
		// Which blocks past the failing segment were decoded depends on
		// the schedule; only the error is deterministic.
		return err.Error(), true
	}
	var cz []any
	for c := range f.Coeff {
		cz = append(cz, f.Coeff[c], f.NZ[c])
	}
	return fmt.Sprintf("ok | bits %s coef %s", digest(bits), digest(cz...)), true
}

// entropyGoldenLines decodes every stream of the corpus every way. The
// fault families are sampled, every sixth stream, to keep the golden
// inside its time budget; TestEntropyPathsAgreeFaults decodes them all.
// One line holds both paths when they agree to the digest.
func entropyGoldenLines(t *testing.T) []string {
	t.Helper()
	streams := diffStreams(t)
	for i, s := range faultStreams(t, 29) {
		if i%6 == 0 {
			streams = append(streams, s)
		}
	}
	streams = append(streams, truncationStreams(t)...)
	var lines []string
	for _, s := range streams {
		for _, scale := range []Scale{Scale1, Scale8} {
			where := fmt.Sprintf("1/%d", scale.Denominator())
			for _, salvage := range []bool{false, true} {
				probe, ok := entropyDecode(s.data, scale, salvage, false)
				if !ok {
					continue
				}
				general, _ := entropyDecode(s.data, scale, salvage, true)
				mode := "strict"
				if salvage {
					mode = "salvage"
				}
				p, g := probe.golden(), general.golden()
				if p == g {
					lines = append(lines, fmt.Sprintf("%s probe,general %s %s: %s", s.name, mode, where, p))
					continue
				}
				lines = append(lines,
					fmt.Sprintf("%s probe %s %s: %s", s.name, mode, where, p),
					fmt.Sprintf("%s general %s %s: %s", s.name, mode, where, g))
			}
			for _, w := range []int{1, 4} {
				if l, ok := restartParallelGolden(s.data, scale, w); ok {
					lines = append(lines, fmt.Sprintf("%s restart W=%d %s: %s", s.name, w, where, l))
				}
			}
		}
	}
	return lines
}

// TestEntropyFaultGolden checks the entropy stage's output over the
// differential corpus against the committed golden.
func TestEntropyFaultGolden(t *testing.T) {
	checkGolden(t, entropyGoldenPath, "Entropy stage output per stream, path, mode and scale", "TestEntropyFaultGolden", entropyGoldenLines(t))
}
