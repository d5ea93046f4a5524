package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"zipserv/internal/bf16"
	"zipserv/internal/tile"
)

// This file keeps the straightforward, coordinate-mapping TCA-TBE
// codec as the single reference the table-driven codec is checked
// against. It maps every element through tile.Grid.FromCoord and
// InBounds, ranks every element with a prefix popcount over the
// indicator, and stitches per-block buffers together — slow, but a
// direct transcription of Algorithms 1 and 2.

// referenceCompress is the reference encoder.
func referenceCompress(m *bf16.Matrix, opts Options) (*Compressed, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	c := &Compressed{Grid: tile.NewGrid(m.Rows, m.Cols), Opts: opts}
	hist := exponentHistogram(m)
	switch opts.Selection {
	case WindowSelection:
		start, _ := BestWindow(hist, opts.WindowSize())
		c.BaseExp = int16(start) - 1
		c.Codebook = make([]uint8, opts.WindowSize())
		for i := range c.Codebook {
			c.Codebook[i] = uint8(start + i)
		}
	case TopFrequencySelection:
		c.Codebook = topExponents(hist, opts.WindowSize())
		c.BaseExp = int16(c.Codebook[0]) - 1
	}

	n := opts.CodewordBits
	g := c.Grid
	c.Planes = make([]uint64, g.NumFrags()*n)
	c.HighOff = make([]int64, g.NumBlocks()+1)
	c.FullOff = make([]int64, g.NumBlocks()+1)
	c.High, c.Full = []uint8{}, []uint16{} // empty, not nil, when nothing lands in them
	for b := 0; b < g.NumBlocks(); b++ {
		high, full := c.referenceEncodeBlock(m, b)
		c.High = append(c.High, high...)
		c.Full = append(c.Full, full...)
		c.HighOff[b+1] = int64(len(c.High))
		c.FullOff[b+1] = int64(len(c.Full))
	}
	return c, nil
}

// referenceEncodeBlock encodes BlockTile b element by element.
// Padding encodes as codeword 1 with a zero sign/mantissa byte.
func (c *Compressed) referenceEncodeBlock(m *bf16.Matrix, b int) (high []uint8, full []uint16) {
	n := c.Opts.CodewordBits
	g := c.Grid
	for f := 0; f < tile.FragsPerBlock; f++ {
		frag := b*tile.FragsPerBlock + f
		planes := c.Planes[frag*n : frag*n+n]
		for p := 0; p < tile.FragElems; p++ {
			r, col := g.FromCoord(tile.Coord{Block: b, Frag: f, Pos: p})
			var w bf16.BF16
			code := padCode
			if g.InBounds(r, col) {
				w = m.At(r, col)
				code = c.codeForExponent(w.Exponent())
			}
			if code != 0 {
				for bit := 0; bit < n; bit++ {
					planes[bit] |= uint64((code>>bit)&1) << p
				}
				high = append(high, w.PackSignMantissa())
			} else {
				full = append(full, w.Bits())
			}
		}
	}
	return high, full
}

// referenceDecompress is the reference decoder, counting architectural
// events exactly as DecompressCounted does.
func referenceDecompress(c *Compressed) (*bf16.Matrix, Counters, error) {
	var ctr Counters
	if err := c.Validate(); err != nil {
		return nil, ctr, err
	}
	g := c.Grid
	m := bf16.NewMatrix(g.Rows, g.Cols)
	var fv FragView
	for b := 0; b < g.NumBlocks(); b++ {
		startH, startL := c.HighOff[b], c.FullOff[b]
		for f := 0; f < tile.FragsPerBlock; f++ {
			frag := b*tile.FragsPerBlock + f
			c.referenceDecodeFrag(frag, startH, startL, &fv, &ctr)
			for p := 0; p < tile.FragElems; p++ {
				r, col := g.FromCoord(tile.Coord{Block: b, Frag: f, Pos: p})
				if g.InBounds(r, col) {
					m.Set(r, col, fv[p])
				}
			}
			hi := popcount(c.Indicator(frag))
			startH += int64(hi)
			startL += int64(tile.FragElems - hi)
		}
	}
	ctr.BytesRead = int64(c.SizeBytes())
	return m, ctr, nil
}

// referenceDecodeFrag decodes one FragTile lane by lane, ranking each
// element with a prefix popcount over the indicator (Algorithm 2).
func (c *Compressed) referenceDecodeFrag(frag int, startH, startL int64, out *FragView, ctr *Counters) {
	n := c.Opts.CodewordBits
	planes := c.FragPlanes(frag)
	m := c.Indicator(frag)
	for lane := 0; lane < tile.WarpLanes; lane++ {
		for k := 0; k < tile.ElemsPerLane; k++ {
			p := uint(tile.ElemsPerLane*lane + k)
			idxH := popcount(m & (uint64(1)<<p - 1))
			if m>>p&1 == 1 {
				code := 0
				for bit := 0; bit < n; bit++ {
					code |= int(planes[bit]>>p&1) << bit
				}
				sign, mant := bf16.UnpackSignMantissa(c.High[startH+int64(idxH)])
				out[p] = bf16.Assemble(sign, c.exponentForCode(code), mant)
			} else {
				out[p] = bf16.FromBits(c.Full[startL+int64(int(p)-idxH)])
			}
		}
	}
	if ctr != nil {
		ctr.Add(fragDecodeCost(n, popcount(m), c.Opts.Selection == WindowSelection))
	}
}

// allOptions lists every supported codec configuration.
func allOptions() []Options {
	var out []Options
	for _, sel := range []Selection{WindowSelection, TopFrequencySelection} {
		for n := 2; n <= 4; n++ {
			out = append(out, Options{CodewordBits: n, Selection: sel})
		}
	}
	return out
}

// assertMatchesReference checks that the codec and the reference
// produce field-for-field identical encodings of m, and that both
// decoders reproduce m with identical event counts.
func assertMatchesReference(t *testing.T, m *bf16.Matrix, opts Options) {
	t.Helper()
	got, err := CompressWithOptions(m, opts)
	if err != nil {
		t.Fatalf("%+v: Compress: %v", opts, err)
	}
	want, err := referenceCompress(m, opts)
	if err != nil {
		t.Fatalf("%+v: referenceCompress: %v", opts, err)
	}
	fields := []struct {
		name      string
		got, want any
	}{
		{"Grid", got.Grid, want.Grid},
		{"Opts", got.Opts, want.Opts},
		{"BaseExp", got.BaseExp, want.BaseExp},
		{"Codebook", got.Codebook, want.Codebook},
		{"Planes", got.Planes, want.Planes},
		{"High", got.High, want.High},
		{"Full", got.Full, want.Full},
		{"HighOff", got.HighOff, want.HighOff},
		{"FullOff", got.FullOff, want.FullOff},
	}
	for _, f := range fields {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%dx%d %+v: %s differs from the reference encoder", m.Rows, m.Cols, opts, f.name)
		}
	}
	var gb, wb bytes.Buffer
	if _, err := got.WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteTo(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%dx%d %+v: serialised bytes differ from the reference", m.Rows, m.Cols, opts)
	}

	out, ctr, err := DecompressCounted(got)
	if err != nil {
		t.Fatalf("%+v: DecompressCounted: %v", opts, err)
	}
	refOut, refCtr, err := referenceDecompress(got)
	if err != nil {
		t.Fatalf("%+v: referenceDecompress: %v", opts, err)
	}
	if !m.Equal(out) {
		t.Fatalf("%dx%d %+v: decoder not bit-exact at %d", m.Rows, m.Cols, opts, m.FirstDiff(out))
	}
	if !m.Equal(refOut) {
		t.Fatalf("%dx%d %+v: reference decoder not bit-exact at %d", m.Rows, m.Cols, opts, m.FirstDiff(refOut))
	}
	if ctr != refCtr {
		t.Fatalf("%dx%d %+v: counters %+v, reference %+v", m.Rows, m.Cols, opts, ctr, refCtr)
	}
	var fv, refFv FragView
	for frag := 0; frag < got.Grid.NumFrags(); frag++ {
		h, l := got.FragStarts(frag)
		var c1, c2 Counters
		got.DecodeFragAt(frag, h, l, &fv, &c1)
		got.referenceDecodeFrag(frag, h, l, &refFv, &c2)
		if fv != refFv || c1 != c2 {
			t.Fatalf("%dx%d %+v: DecodeFragAt(%d) differs from the reference", m.Rows, m.Cols, opts, frag)
		}
	}
}

// TestCodecMatchesReference pins the table-driven codec to the
// reference on every configuration and on shapes that exercise edge
// blocks, full padding rows and columns, and multi-block offsets.
func TestCodecMatchesReference(t *testing.T) {
	shapes := []struct{ r, c int }{
		{64, 64}, {1, 1}, {7, 9}, {63, 65}, {65, 63}, {100, 150}, {128, 192}, {8, 200},
	}
	for _, opts := range allOptions() {
		for i, s := range shapes {
			assertMatchesReference(t, gaussianMatrix(t, s.r, s.c, 0.02, int64(i+1)), opts)
			assertMatchesReference(t, randomBitsMatrix(t, s.r, s.c, int64(i+1)), opts)
		}
	}
}

// FuzzCompressMatchesReference is the differential fuzz target: for
// any bit patterns, shape and configuration, the codec's encoding is
// identical to the reference's and both decoders agree.
func FuzzCompressMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2}, uint8(5), uint8(7), uint8(1))
	f.Add([]byte{0xFF, 0x7F, 0x80, 0x00}, uint8(64), uint8(64), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(2))
	f.Add(bytes.Repeat([]byte{0x9a, 0x3d, 0x10, 0x3c}, 48*96), uint8(95), uint8(70), uint8(4))
	rng := rand.New(rand.NewSource(1))
	for sel := 0; sel < 6; sel++ {
		raw := make([]byte, 2*80*90)
		rng.Read(raw)
		f.Add(raw, uint8(79+sel), uint8(89-sel), uint8(sel))
	}
	f.Fuzz(func(t *testing.T, raw []byte, rowsSel, colsSel, optSel uint8) {
		rows := int(rowsSel%130) + 1
		cols := int(colsSel%130) + 1
		m := bf16.NewMatrix(rows, cols)
		for i := range m.Data {
			var v uint16
			if 2*i+1 < len(raw) {
				v = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
			}
			m.Data[i] = bf16.FromBits(v)
		}
		opts := allOptions()
		assertMatchesReference(t, m, opts[int(optSel)%len(opts)])
	})
}

// TestCompressBuffersExact: a frozen block must retain no slack, so
// every buffer Compress returns is allocated at exactly its length.
func TestCompressBuffersExact(t *testing.T) {
	for _, s := range []struct{ r, c int }{{64, 64}, {100, 150}, {128, 256}} {
		for _, opts := range allOptions() {
			cm, err := CompressWithOptions(gaussianMatrix(t, s.r, s.c, 0.02, 3), opts)
			if err != nil {
				t.Fatal(err)
			}
			if cap(cm.High) != len(cm.High) || cap(cm.Full) != len(cm.Full) || cap(cm.Planes) != len(cm.Planes) {
				t.Errorf("%dx%d %+v: cap/len High %d/%d Full %d/%d Planes %d/%d",
					s.r, s.c, opts, cap(cm.High), len(cm.High), cap(cm.Full), len(cm.Full),
					cap(cm.Planes), len(cm.Planes))
			}
		}
	}
}
