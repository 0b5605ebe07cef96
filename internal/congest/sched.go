package congest

import "math/bits"

// sched is a hierarchical bitset scheduler over a fixed universe [0, n).
// It replaces the old engine's append-then-sort.Slice scheduling: add is
// O(1) amortized and drain visits members in ascending index order — the
// deterministic ID-order execution the CONGEST simulation requires — by
// construction, with no comparator and no allocation.
//
// level[0] holds one bit per element; level[k][w] summarizes whether word
// w of level[k-1] is non-zero, so drain skips empty regions in O(1) per
// 64-element block and a drain of m members over a universe of n costs
// O(m + log n), independent of how sparse the active set is. The top level
// is always a single word.
type sched struct {
	level [][]uint64
	count int
}

func newSched(n int) *sched {
	s := &sched{}
	for {
		words := (n + 63) / 64
		if words < 1 {
			words = 1
		}
		s.level = append(s.level, make([]uint64, words))
		if words == 1 {
			return s
		}
		n = words
	}
}

// add inserts i; adding a member is a no-op.
func (s *sched) add(i int32) {
	idx := int(i)
	w := idx >> 6
	mask := uint64(1) << uint(idx&63)
	if s.level[0][w]&mask != 0 {
		return
	}
	s.level[0][w] |= mask
	s.count++
	for lv := 1; lv < len(s.level); lv++ {
		idx = w
		w = idx >> 6
		mask = uint64(1) << uint(idx&63)
		if s.level[lv][w]&mask != 0 {
			break
		}
		s.level[lv][w] |= mask
	}
}

// drain visits every member in ascending order, removing it first. The
// visit callback may re-add the member currently being visited (the
// engine's "leftover queue" case): its scheduler word has already been
// consumed this drain, so the re-add lands in the next drain, never twice
// in this one.
func (s *sched) drain(visit func(int32)) {
	if s.count == 0 {
		return
	}
	s.count = 0
	top := len(s.level) - 1
	if s.level[top][0] != 0 {
		s.drainWord(top, 0, visit)
	}
}

func (s *sched) drainWord(lv, wi int, visit func(int32)) {
	w := s.level[lv][wi]
	s.level[lv][wi] = 0
	base := wi << 6
	for w != 0 {
		idx := base + bits.TrailingZeros64(w)
		w &= w - 1
		if lv == 0 {
			visit(int32(idx))
		} else {
			s.drainWord(lv-1, idx, visit)
		}
	}
}
