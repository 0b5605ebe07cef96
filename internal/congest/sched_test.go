package congest

import (
	"slices"
	"testing"

	"distwalk/internal/rng"
)

// TestSched drives the bitset scheduler over universes of one to four
// levels: count tracks the distinct members added, drain visits them in
// ascending order, and a member re-added during its own visit lands in
// the next drain, not this one.
func TestSched(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{1, 63, 64, 65, 4097, 300_000} {
		s := newSched(n)
		set := map[int32]bool{}
		for i := 0; i < 3*min(n, 2000); i++ {
			v := int32(r.Intn(n))
			s.add(v)
			set[v] = true
			if s.count != len(set) {
				t.Fatalf("n=%d: count %d after adding %d distinct members", n, s.count, len(set))
			}
		}
		var want []int32
		for v := range set {
			want = append(want, v)
		}
		slices.Sort(want)

		var got, readded []int32
		s.drain(func(v int32) {
			got = append(got, v)
			if v%2 == 1 {
				s.add(v)
				readded = append(readded, v)
			}
		})
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: drain visited %v, want %v", n, got, want)
		}
		if s.count != len(readded) {
			t.Fatalf("n=%d: count %d after the drain, %d members re-added", n, s.count, len(readded))
		}
		got = got[:0]
		s.drain(func(v int32) { got = append(got, v) })
		if !slices.Equal(got, readded) {
			t.Fatalf("n=%d: next drain visited %v, want the re-added %v", n, got, readded)
		}
		if s.count != 0 {
			t.Fatalf("n=%d: count %d after draining everything", n, s.count)
		}
		s.drain(func(v int32) { t.Fatalf("n=%d: empty drain visited %d", n, v) })
	}
}
