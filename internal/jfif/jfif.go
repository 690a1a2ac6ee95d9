// Package jfif parses and writes the JPEG interchange format container:
// marker segments, frame and scan headers, quantization and Huffman table
// definitions, and restart intervals. Baseline sequential DCT (SOF0/SOF1)
// and progressive DCT (SOF2: spectral selection and successive
// approximation across multiple scans) with 8-bit precision are
// supported.
package jfif

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hetjpeg/internal/huffman"
)

// ErrUnsupported marks streams that are structurally valid JPEG but use
// a feature outside this decoder's scope (12-bit precision, arithmetic
// coding, hierarchical frames, exotic sampling layouts). Callers
// distinguish it from corruption with errors.Is: a service can answer
// "unsupported media" instead of "bad request".
var ErrUnsupported = errors.New("unsupported JPEG feature")

// unsupportedf wraps ErrUnsupported with detail, keeping errors.Is intact.
func unsupportedf(format string, args ...any) error {
	return fmt.Errorf("jfif: %w: "+format, append([]any{ErrUnsupported}, args...)...)
}

// Marker codes (second byte after 0xFF).
const (
	MarkerSOI  = 0xD8
	MarkerEOI  = 0xD9
	MarkerSOF0 = 0xC0
	MarkerSOF1 = 0xC1
	MarkerSOF2 = 0xC2
	MarkerDHT  = 0xC4
	MarkerDQT  = 0xDB
	MarkerDRI  = 0xDD
	MarkerSOS  = 0xDA
	MarkerAPP0 = 0xE0
	MarkerAPP1 = 0xE1
	MarkerCOM  = 0xFE
	MarkerRST0 = 0xD0
)

// maxScans bounds the scan count of a progressive stream. A complete
// scan script needs at most 1 DC first + 13 DC refinements plus, per
// component, an AC first and 13 refinements per spectral band; 256 is
// far above any real encoder and keeps hostile inputs from queuing
// unbounded scan work.
const maxScans = 256

// ZigZag maps zig-zag index -> natural (row-major) index.
var ZigZag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// Natural maps natural index -> zig-zag index (inverse of ZigZag).
var Natural [64]int

func init() {
	for z, n := range ZigZag {
		Natural[n] = z
	}
}

// StdLuminanceQuant is ITU-T T.81 Table K.1 in natural order.
var StdLuminanceQuant = [64]uint16{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// StdChrominanceQuant is ITU-T T.81 Table K.2 in natural order.
var StdChrominanceQuant = [64]uint16{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// ScaleQuantTable applies libjpeg's linear quality scaling (quality 1..100)
// to a base table, clamping entries to [1,255] for baseline compatibility.
func ScaleQuantTable(base *[64]uint16, quality int) [64]uint16 {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int
	if quality < 50 {
		scale = 5000 / quality
	} else {
		scale = 200 - quality*2
	}
	var out [64]uint16
	for i, v := range base {
		q := (int(v)*scale + 50) / 100
		if q < 1 {
			q = 1
		}
		if q > 255 {
			q = 255
		}
		out[i] = uint16(q)
	}
	return out
}

// Subsampling identifies the chroma layout of a 3-component image.
type Subsampling int

const (
	// Sub444 samples chroma at full resolution.
	Sub444 Subsampling = iota
	// Sub422 halves chroma horizontally (h2v1); the paper's main case.
	Sub422
	// Sub420 halves chroma in both directions (h2v2).
	Sub420
	// SubGray is a single-component (luminance only) image.
	SubGray
)

// String implements fmt.Stringer.
func (s Subsampling) String() string {
	switch s {
	case Sub444:
		return "4:4:4"
	case Sub422:
		return "4:2:2"
	case Sub420:
		return "4:2:0"
	case SubGray:
		return "gray"
	default:
		return fmt.Sprintf("Subsampling(%d)", int(s))
	}
}

// Factors returns the luma sampling factors (h, v) relative to chroma.
func (s Subsampling) Factors() (h, v int) {
	switch s {
	case Sub422:
		return 2, 1
	case Sub420:
		return 2, 2
	default:
		return 1, 1
	}
}

// MCUPixels returns the MCU dimensions in luma pixels.
func (s Subsampling) MCUPixels() (w, h int) {
	fh, fv := s.Factors()
	return 8 * fh, 8 * fv
}

// Component describes one color component from the frame header.
type Component struct {
	ID       byte
	H, V     int // sampling factors
	QuantSel int // quantization table selector
	DCSel    int // DC Huffman table selector (from SOS)
	ACSel    int // AC Huffman table selector (from SOS)
}

// ScanComponent names one component's share of a progressive scan, with
// the Huffman tables that were in effect when the scan header was
// parsed (tables may be redefined between scans, so they are resolved
// per scan, not per image).
type ScanComponent struct {
	CompIdx int // index into Image.Components
	DC, AC  *huffman.Table
}

// Scan is one entropy-coded scan of a progressive image: the spectral
// band [Ss, Se], the successive-approximation bit positions Ah (high,
// 0 for a first scan) and Al (low), and the scan's entropy bytes with
// RSTn markers left inline.
type Scan struct {
	Comps           []ScanComponent
	Ss, Se, Ah, Al  int
	RestartInterval int // DRI value in effect for this scan
	Data            []byte
}

// Interleaved reports whether the scan walks the padded MCU grid (more
// than one component) rather than a single component's own block grid.
func (s *Scan) Interleaved() bool { return len(s.Comps) > 1 }

// Image is the parsed structural view of a JPEG file. Baseline images
// have one entropy segment (EntropyData); progressive images carry one
// Scan per SOS marker instead.
type Image struct {
	Width, Height   int
	Components      []Component
	Quant           [4]*[64]uint16 // indexed by table selector, zigzag order undone (natural order)
	DCTables        [4]*huffman.Table
	ACTables        [4]*huffman.Table
	RestartInterval int
	EntropyData     []byte // baseline: the entropy-coded segment (between SOS header and EOI)
	Progressive     bool   // frame came from SOF2
	Scans           []Scan // progressive: one entry per SOS
	FileSize        int    // total size of the JPEG stream in bytes
}

// Subsampling classifies the component layout.
func (im *Image) Subsampling() (Subsampling, error) {
	if len(im.Components) == 1 {
		return SubGray, nil
	}
	if len(im.Components) != 3 {
		return 0, unsupportedf("component count %d", len(im.Components))
	}
	y, cb, cr := im.Components[0], im.Components[1], im.Components[2]
	if cb.H != 1 || cb.V != 1 || cr.H != 1 || cr.V != 1 {
		return 0, unsupportedf("chroma sampling factors other than 1x1")
	}
	switch {
	case y.H == 1 && y.V == 1:
		return Sub444, nil
	case y.H == 2 && y.V == 1:
		return Sub422, nil
	case y.H == 2 && y.V == 2:
		return Sub420, nil
	}
	return 0, unsupportedf("luma sampling %dx%d", y.H, y.V)
}

// EntropyDensity returns the paper's entropy-density estimate d =
// FileSize / (Width*Height) in bytes per pixel (Equation 3).
func (im *Image) EntropyDensity() float64 {
	if im.Width == 0 || im.Height == 0 {
		return 0
	}
	return float64(im.FileSize) / float64(im.Width*im.Height)
}

// Parse reads a baseline or progressive JPEG stream into an Image. The
// entropy-coded segments are referenced, not copied.
func Parse(data []byte) (*Image, error) {
	im, err := parse(data)
	if err != nil {
		return nil, err
	}
	return im, nil
}

// ParseSalvage parses tolerantly: when the container is damaged after a
// decodable prefix (a progressive stream truncated between or inside
// scans, a corrupt marker-segment length after the first scan), it
// returns both the partial Image and the parse error so the caller can
// decode what survived. Baseline streams are already tolerant of
// anything past the SOS header (Parse succeeds on them), so partial
// images arise only for progressive streams with at least one parsed
// scan. ErrUnsupported remains fatal — the stream is intact, merely out
// of scope — and unsalvageable failures return (nil, err) exactly like
// Parse.
func ParseSalvage(data []byte) (*Image, error) {
	im, err := parse(data)
	if err == nil {
		return im, nil
	}
	if errors.Is(err, ErrUnsupported) {
		return nil, err
	}
	if im != nil && im.Progressive && len(im.Scans) > 0 {
		return im, err
	}
	return nil, err
}

// parse is the marker-loop core shared by Parse and ParseSalvage: on
// error it returns the partially-populated Image alongside the error so
// the salvage path can judge whether anything decodable survived.
func parse(data []byte) (*Image, error) {
	if len(data) < 4 || data[0] != 0xFF || data[1] != MarkerSOI {
		return nil, errors.New("jfif: missing SOI marker")
	}
	im := &Image{FileSize: len(data)}
	pos := 2
	for {
		if pos+2 > len(data) {
			return im, errors.New("jfif: truncated stream")
		}
		if data[pos] != 0xFF {
			return im, fmt.Errorf("jfif: expected marker at offset %d, found %#02x", pos, data[pos])
		}
		marker := data[pos+1]
		pos += 2
		if marker == MarkerEOI {
			if im.Progressive && len(im.Scans) > 0 {
				return im, nil
			}
			return im, errors.New("jfif: EOI before SOS")
		}
		if pos+2 > len(data) {
			return im, errors.New("jfif: truncated stream")
		}
		segLen := int(binary.BigEndian.Uint16(data[pos:])) // includes the two length bytes
		if segLen < 2 || pos+segLen > len(data) {
			return im, fmt.Errorf("jfif: bad segment length %d for marker %#02x", segLen, marker)
		}
		seg := data[pos+2 : pos+segLen]
		pos += segLen

		switch marker {
		case MarkerSOF0, MarkerSOF1, MarkerSOF2:
			if im.Components != nil {
				return im, errors.New("jfif: multiple frame headers")
			}
			if err := im.parseSOF(seg); err != nil {
				return im, err
			}
			im.Progressive = marker == MarkerSOF2
		case 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF:
			return im, unsupportedf("frame type SOF%d (only baseline SOF0/SOF1 and progressive SOF2 are decoded)", marker-MarkerSOF0)
		case MarkerDQT:
			if err := im.parseDQT(seg); err != nil {
				return im, err
			}
		case MarkerDHT:
			if err := im.parseDHT(seg); err != nil {
				return im, err
			}
		case MarkerDRI:
			if len(seg) != 2 {
				return im, errors.New("jfif: bad DRI length")
			}
			im.RestartInterval = int(binary.BigEndian.Uint16(seg))
		case MarkerSOS:
			if !im.Progressive {
				if err := im.parseSOS(seg); err != nil {
					return im, err
				}
				// Entropy data runs to EOI; find the final FFD9.
				end := len(data)
				if end >= 2 && data[end-1] == MarkerEOI && data[end-2] == 0xFF {
					end -= 2
				}
				im.EntropyData = data[pos:end]
				return im, nil
			}
			sc, err := im.parseProgressiveSOS(seg)
			if err != nil {
				return im, err
			}
			if len(im.Scans) >= maxScans {
				return im, fmt.Errorf("jfif: more than %d scans", maxScans)
			}
			// The scan's entropy bytes run to the next non-RST marker
			// (RSTn markers stay inline; the bit reader consumes them).
			end := entropyEnd(data, pos)
			sc.Data = data[pos:end]
			im.Scans = append(im.Scans, sc)
			pos = end
		default:
			// APPn/COM and friends: skip.
		}
	}
}

// entropyEnd scans forward from pos for the first marker that is not
// byte stuffing (FF00) and not a restart marker (FFD0-FFD7) — the end
// of one scan's entropy-coded segment. Running off the end of data
// returns len(data); the caller's marker loop reports truncation.
func entropyEnd(data []byte, pos int) int {
	for i := pos; i+1 < len(data); i++ {
		if data[i] != 0xFF {
			continue
		}
		b := data[i+1]
		if b == 0x00 {
			i++ // stuffed data byte
			continue
		}
		if b >= 0xD0 && b <= 0xD7 {
			i++ // restart marker, part of the entropy stream
			continue
		}
		return i
	}
	return len(data)
}

func (im *Image) parseSOF(seg []byte) error {
	if len(seg) < 6 {
		return errors.New("jfif: short SOF")
	}
	if seg[0] != 8 {
		return unsupportedf("%d-bit sample precision", seg[0])
	}
	im.Height = int(binary.BigEndian.Uint16(seg[1:]))
	im.Width = int(binary.BigEndian.Uint16(seg[3:]))
	n := int(seg[5])
	if len(seg) < 6+3*n {
		return errors.New("jfif: short SOF component list")
	}
	if n != 1 && n != 3 {
		return unsupportedf("component count %d", n)
	}
	im.Components = make([]Component, n)
	for i := 0; i < n; i++ {
		c := seg[6+3*i : 9+3*i]
		im.Components[i] = Component{
			ID:       c[0],
			H:        int(c[1] >> 4),
			V:        int(c[1] & 0xF),
			QuantSel: int(c[2]),
		}
		if im.Components[i].QuantSel > 3 {
			return errors.New("jfif: quant selector out of range")
		}
	}
	return nil
}

func (im *Image) parseDQT(seg []byte) error {
	for len(seg) > 0 {
		pq := seg[0] >> 4
		tq := int(seg[0] & 0xF)
		if tq > 3 {
			return errors.New("jfif: DQT selector out of range")
		}
		if pq != 0 {
			return unsupportedf("16-bit quantization tables")
		}
		if len(seg) < 65 {
			return errors.New("jfif: short DQT")
		}
		var tbl [64]uint16
		for z := 0; z < 64; z++ {
			tbl[ZigZag[z]] = uint16(seg[1+z])
		}
		im.Quant[tq] = &tbl
		seg = seg[65:]
	}
	return nil
}

func (im *Image) parseDHT(seg []byte) error {
	for len(seg) > 0 {
		if len(seg) < 17 {
			return errors.New("jfif: short DHT")
		}
		class := seg[0] >> 4
		sel := int(seg[0] & 0xF)
		if sel > 3 || class > 1 {
			return errors.New("jfif: DHT selector/class out of range")
		}
		var spec huffman.Spec
		total := 0
		for i := 0; i < 16; i++ {
			spec.Counts[i] = seg[1+i]
			total += int(seg[1+i])
		}
		if len(seg) < 17+total {
			return errors.New("jfif: short DHT values")
		}
		// Most streams carry the Annex-K tables, which are compiled once
		// for the process; only image-specific tables are built here.
		tbl := huffman.Standard(seg[1:17], seg[17:17+total])
		if tbl == nil {
			spec.Values = append([]byte(nil), seg[17:17+total]...)
			var err error
			if tbl, err = huffman.New(spec); err != nil {
				return err
			}
		}
		if class == 0 {
			im.DCTables[sel] = tbl
		} else {
			im.ACTables[sel] = tbl
		}
		seg = seg[17+total:]
	}
	return nil
}

func (im *Image) parseSOS(seg []byte) error {
	if len(seg) < 1 {
		return errors.New("jfif: short SOS")
	}
	n := int(seg[0])
	if n != len(im.Components) {
		return fmt.Errorf("jfif: SOS has %d components, SOF has %d", n, len(im.Components))
	}
	if len(seg) < 1+2*n+3 {
		return errors.New("jfif: short SOS body")
	}
	for i := 0; i < n; i++ {
		id := seg[1+2*i]
		sel := seg[2+2*i]
		// T.81 B.2.3: table selectors are 2-bit (0..3); larger values
		// would index past the four-table arrays.
		if sel>>4 > 3 || sel&0xF > 3 {
			return fmt.Errorf("jfif: SOS table selectors %d/%d out of range", sel>>4, sel&0xF)
		}
		found := false
		for j := range im.Components {
			if im.Components[j].ID == id {
				im.Components[j].DCSel = int(sel >> 4)
				im.Components[j].ACSel = int(sel & 0xF)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("jfif: SOS references unknown component %d", id)
		}
	}
	return nil
}

// parseProgressiveSOS reads one scan header of a progressive image,
// resolving the Huffman tables in effect right now (DHT segments between
// scans redefine selectors). Validation follows T.81 G.1: a DC scan
// (Ss=0) covers only coefficient 0 and may interleave components; an AC
// scan covers a band [Ss, Se] of a single component; refinement scans
// shave exactly one bit (Ah = Al+1).
func (im *Image) parseProgressiveSOS(seg []byte) (Scan, error) {
	if im.Components == nil {
		return Scan{}, errors.New("jfif: SOS before SOF")
	}
	if len(seg) < 1 {
		return Scan{}, errors.New("jfif: short SOS")
	}
	n := int(seg[0])
	if n < 1 || n > len(im.Components) {
		return Scan{}, fmt.Errorf("jfif: scan has %d components, frame has %d", n, len(im.Components))
	}
	if len(seg) < 1+2*n+3 {
		return Scan{}, errors.New("jfif: short SOS body")
	}
	sc := Scan{
		Ss:              int(seg[1+2*n]),
		Se:              int(seg[2+2*n]),
		Ah:              int(seg[3+2*n] >> 4),
		Al:              int(seg[3+2*n] & 0xF),
		RestartInterval: im.RestartInterval,
	}
	switch {
	case sc.Ss == 0 && sc.Se != 0:
		return Scan{}, fmt.Errorf("jfif: DC scan with Se=%d", sc.Se)
	case sc.Ss > 63 || sc.Se > 63 || sc.Se < sc.Ss:
		return Scan{}, fmt.Errorf("jfif: bad spectral selection [%d, %d]", sc.Ss, sc.Se)
	case sc.Ss > 0 && n != 1:
		return Scan{}, fmt.Errorf("jfif: AC scan interleaves %d components", n)
	case sc.Al > 13 || (sc.Ah != 0 && sc.Ah != sc.Al+1):
		return Scan{}, fmt.Errorf("jfif: bad successive approximation Ah=%d Al=%d", sc.Ah, sc.Al)
	}
	for i := 0; i < n; i++ {
		id := seg[1+2*i]
		sel := seg[2+2*i]
		idx := -1
		for j := range im.Components {
			if im.Components[j].ID == id {
				idx = j
			}
		}
		if idx < 0 {
			return Scan{}, fmt.Errorf("jfif: SOS references unknown component %d", id)
		}
		for _, prev := range sc.Comps {
			if prev.CompIdx == idx {
				return Scan{}, fmt.Errorf("jfif: component %d repeated in scan", id)
			}
		}
		scc := ScanComponent{CompIdx: idx}
		if sc.Ss == 0 && sc.Ah == 0 {
			if sel>>4 > 3 {
				return Scan{}, fmt.Errorf("jfif: DC table selector %d out of range", sel>>4)
			}
			scc.DC = im.DCTables[sel>>4]
			if scc.DC == nil {
				return Scan{}, fmt.Errorf("jfif: scan uses undefined DC table %d", sel>>4)
			}
		}
		if sc.Ss > 0 {
			if sel&0xF > 3 {
				return Scan{}, fmt.Errorf("jfif: AC table selector %d out of range", sel&0xF)
			}
			scc.AC = im.ACTables[sel&0xF]
			if scc.AC == nil {
				return Scan{}, fmt.Errorf("jfif: scan uses undefined AC table %d", sel&0xF)
			}
		}
		sc.Comps = append(sc.Comps, scc)
	}
	return sc, nil
}
