package mixing

import (
	"math"
	"testing"
)

// The degree sum and the bucket statistics read back bit for bit what
// was packed — signed zeros, subnormals and huge values included — under
// their historical kinds and sizes.
func TestCodecMessages(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1040, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), 1.0 / 3}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, f := range floats {
		m := floatMsg(f)
		if m.Kind != 1 || m.Words() != 2 {
			t.Fatalf("floatMsg: kind %d, %d words; want kind 1, 2 words", m.Kind, m.Words())
		}
		if got := readFloat(&m); !same(got, f) {
			t.Fatalf("floatMsg(%v) read back as %v", f, got)
		}
	}
	for i, f := range floats {
		b := Bucket{Mass: f, Mass2: floats[len(floats)-1-i], Count: int64(i) - 4}
		if i == 0 {
			b.Count = math.MaxInt64
		}
		m := bucketMsg(b)
		if m.Kind != 2 || m.Words() != 5 {
			t.Fatalf("bucketMsg: kind %d, %d words; want kind 2, 5 words", m.Kind, m.Words())
		}
		got := readBucket(&m)
		if !same(got.Mass, b.Mass) || !same(got.Mass2, b.Mass2) || got.Count != b.Count {
			t.Fatalf("bucketMsg(%+v) read back as %+v", b, got)
		}
	}
}
