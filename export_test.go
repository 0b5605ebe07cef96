package distwalk

import "distwalk/internal/cache"

// ManyRequestDigest returns a function that builds the cache key of a
// ManyRandomWalks request under the default options, so the external test
// package can gate requestDigest's allocations.
func ManyRequestDigest(key uint64, sources []NodeID, ell int) func() cache.Key {
	cfg := defaultConfig()
	op := operands{sources: sources, ell: ell}
	return func() cache.Key { return requestDigest(1, cacheKindMany, key, op, &cfg) }
}
