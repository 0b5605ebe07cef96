package distwalk

import (
	"distwalk/internal/cache"
	"distwalk/internal/core"
)

// CacheStats is the result cache's counter snapshot; see Service.Stats
// and the WithResultCache option.
type CacheStats = cache.Stats

// --- Copy-on-return ---
//
// Stored results are frozen masters; every return through the cached path
// (hit, miss and coalesced alike) is a deep copy, so callers can mutate
// what they get without corrupting future hits. See the design notes in
// internal/cache/doc.go for why the copy is uniform.

func copyWalkResult(r *WalkResult) *WalkResult {
	out := *r
	if r.Segments != nil {
		out.Segments = append([]core.Segment(nil), r.Segments...)
	}
	return &out
}

// copyManyResult copies the k walks into one []WalkResult and all their
// segments into one []core.Segment, so a copy makes the same handful of
// allocations at any k. Each walk's Segments is a capped sub-slice of
// the segment slab: an append to one walk reallocates instead of
// overwriting the next walk's segments.
func copyManyResult(r *ManyResult) *ManyResult {
	out := *r
	if r.Destinations != nil {
		out.Destinations = append([]NodeID(nil), r.Destinations...)
	}
	if r.Walks != nil {
		n := 0
		for _, w := range r.Walks {
			if w != nil {
				n += len(w.Segments)
			}
		}
		out.Walks = make([]*WalkResult, len(r.Walks))
		walks := make([]WalkResult, len(r.Walks))
		segs := make([]core.Segment, 0, n)
		for i, w := range r.Walks {
			if w == nil {
				continue
			}
			walks[i] = *w
			if w.Segments != nil {
				lo := len(segs)
				segs = append(segs, w.Segments...)
				walks[i].Segments = segs[lo:len(segs):len(segs)]
			}
			out.Walks[i] = &walks[i]
		}
	}
	return &out
}

func copyTrace(t *Trace) *Trace {
	out := *t
	if t.Path != nil {
		out.Path = append([]NodeID(nil), t.Path...)
	}
	if t.FirstVisitTime != nil {
		out.FirstVisitTime = append([]int32(nil), t.FirstVisitTime...)
	}
	if t.FirstVisitFrom != nil {
		out.FirstVisitFrom = append([]NodeID(nil), t.FirstVisitFrom...)
	}
	return &out
}

func copyTracedWalk(p tracedWalk) tracedWalk {
	return tracedWalk{walk: copyWalkResult(p.walk), trace: copyTrace(p.trace)}
}

func copyRST(r *RSTResult) *RSTResult {
	out := *r
	if r.Parent != nil {
		out.Parent = append([]NodeID(nil), r.Parent...)
	}
	return &out
}

func copyMixing(r *MixingEstimate) *MixingEstimate {
	out := *r // flat struct, no slices
	return &out
}

// --- Cache entry estimates (requestKind.entry) ---
//
// Deep size charged against the byte budget. Struct headers are rounded
// constants (exactness buys nothing — the budget is a pressure valve, not
// an allocator); the slice payloads, which dominate for real results, are
// counted element-exact.

func sizeWalkResult(r *WalkResult) int64 {
	return int64(96 + 40*len(r.Segments))
}

func walkEntry(r *WalkResult) int64 {
	return sizeWalkResult(r)
}

func manyEntry(r *ManyResult) int64 {
	sz := int64(112 + 4*len(r.Destinations) + 8*len(r.Walks))
	for _, w := range r.Walks {
		if w != nil {
			sz += sizeWalkResult(w)
		}
	}
	return sz
}

func traceEntry(p tracedWalk) int64 {
	t := p.trace
	return sizeWalkResult(p.walk) + int64(96+4*len(t.Path)+4*len(t.FirstVisitTime)+4*len(t.FirstVisitFrom))
}

func rstEntry(r *RSTResult) int64 {
	return int64(80 + 4*len(r.Parent))
}

func mixEntry(*MixingEstimate) int64 {
	return 128 // flat struct, no slices
}
