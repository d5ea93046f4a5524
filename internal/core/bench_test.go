package core

import (
	"testing"

	"zipserv/internal/bf16"
)

// kvLikeBlock builds one 64×64 BlockTile with the value distribution
// the compressed KV cache stores: an xorshift stream mapped into a
// narrow band centred on zero, so exponents cluster the way TCA-TBE
// exploits and a few percent fall back to full precision.
func kvLikeBlock(seed uint64) *bf16.Matrix {
	m := bf16.NewMatrix(64, 64)
	x := seed | 1
	for i := range m.Data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Data[i] = bf16.FromFloat32(float32(int64(x>>40)-(1<<23)) / float32(1<<27))
	}
	return m
}

// BenchmarkBlockCompress and BenchmarkBlockDecompress time the codec
// on exactly the unit the KV cache freezes and thaws: one 64×64 block.
// CI gates their allocs/op.
func BenchmarkBlockCompress(b *testing.B) {
	m := kvLikeBlock(1)
	b.SetBytes(int64(m.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm, err := Compress(m)
		if err != nil {
			b.Fatal(err)
		}
		compressSink = cm
	}
}

var compressSink *Compressed

func BenchmarkBlockDecompress(b *testing.B) {
	m := kvLikeBlock(1)
	cm, err := Compress(m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(m.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Decompress(cm)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}
