// Package distwalk implements the algorithms of "Efficient Distributed
// Random Walks with Applications" (Das Sarma, Nanongkai, Pandurangan,
// Tetali; PODC 2010) on a simulated CONGEST network, together with the
// paper's two applications: uniform random spanning trees and
// decentralized mixing-time estimation.
//
// The headline algorithm samples the endpoint of an ℓ-step random walk in
// Õ(√(ℓD)) communication rounds — sublinear in ℓ — by preparing many short
// walks in parallel and stitching them together (Theorem 2.5).
//
// # Service API
//
// The entry point is Service: a long-lived, concurrency-safe pool that
// serves walk requests, walk batches, spanning trees and mixing estimates
// over one topology — walk sampling as a reusable network primitive, which
// is how the paper frames it. Every request takes a context (cancellation
// reaches down into the simulated round loop), is identified by a request
// key that fully determines its result (per-key determinism, independent
// of concurrency and call order), and reports its exact simulated
// round/message cost:
//
//	g, _ := distwalk.Torus(32, 32)
//	svc, _ := distwalk.NewService(g, 42)
//	defer svc.Close()
//	res, _ := svc.SingleRandomWalk(ctx, 1, 0, 100_000)
//	fmt.Println(res.Destination, res.Cost.Rounds) // ≪ 100000 rounds
//
// Tuning is functional-options style (WithParams, WithRSTOptions,
// WithMixingOptions, WithMaxRounds, ...), at construction for service
// defaults and per request for overrides. Failures wrap the exported sentinel errors (ErrBadNode,
// ErrBudgetExceeded, ErrDisconnected, ...) and are errors.Is-able; see
// errors.go for the taxonomy.
//
// # Dynamic graphs
//
// The served topology is mutable under live traffic: ApplyMutations
// applies a batch of edge edits copy-on-write and publishes it as the
// next Generation. Requests in flight across the boundary complete
// epoch-pinned against the snapshot they admitted under, retries
// included, returning exactly what a never-mutated service would. See
// mutate.go.
//
// The single-threaded Walker shim that predated Service (NewWalker and
// the bare-Params entry points) has been removed; the same engine is
// reachable through Service with identical bit-exact results, and the
// low-level surface lives in internal/core for this module's own tests.
package distwalk

import (
	"distwalk/internal/congest"
	"distwalk/internal/core"
	"distwalk/internal/dist"
	"distwalk/internal/fault"
	"distwalk/internal/graph"
	"distwalk/internal/mixing"
	"distwalk/internal/rng"
	"distwalk/internal/spanning"
	"distwalk/internal/spectral"
	"distwalk/internal/wire"
)

// Re-exported core types. The implementations live in internal packages;
// these aliases are the supported public surface.
type (
	// Graph is an undirected (optionally weighted) multigraph.
	Graph = graph.G
	// NodeID identifies a vertex (0..n-1).
	NodeID = graph.NodeID
	// Params tunes the walk algorithms; see DefaultParams. Pass it to a
	// Service with WithParams.
	Params = core.Params
	// WalkResult describes one completed walk and its simulated cost.
	WalkResult = core.WalkResult
	// ManyResult describes a MANY-RANDOM-WALKS batch.
	ManyResult = core.ManyResult
	// Trace is a regenerated walk: its path and every node's first visit.
	Trace = core.Trace
	// Cost aggregates rounds, messages and queueing of simulated runs.
	Cost = congest.Result
	// ShardStats reports per-shard occupancy and barrier wait time of the
	// sharded engine; see Service.Stats and the WithShards option.
	ShardStats = congest.ShardStats
	// ClusterEngineStats reports one remote shard engine's traffic in
	// cluster mode; see Service.Stats and the WithCluster option.
	ClusterEngineStats = wire.EngineStats
	// RSTOptions tunes the random-spanning-tree driver; see the
	// WithRSTOptions option.
	RSTOptions = spanning.Options
	// RSTResult is a sampled spanning tree plus its cost.
	RSTResult = spanning.Result
	// MixingOptions tunes the mixing-time estimator; see the
	// WithMixingOptions option.
	MixingOptions = mixing.Options
	// MixingEstimate is the decentralized mixing-time estimate.
	MixingEstimate = mixing.Estimate
	// FaultStats counts the injected faults charged during simulated runs
	// (messages dropped at crashed nodes or lossy links, deliveries
	// delayed on slow links, nodes down); part of every Cost.
	FaultStats = congest.FaultStats
	// FaultPlan is a deterministic fault-injection plan: crash-stop
	// failures, churn windows, lossy links and slow links, all derived
	// from the plan seed. Install with WithFaultPlan; build randomized
	// plans with RandomFaultPlan.
	FaultPlan = fault.Plan
	// FaultCrash is one crash-stop entry of a FaultPlan.
	FaultCrash = fault.Crash
	// FaultChurn is one down-window entry of a FaultPlan.
	FaultChurn = fault.Churn
	// FaultLinkDrop is one per-link loss-probability override.
	FaultLinkDrop = fault.LinkDrop
	// FaultLinkDelay is one per-link fixed-delay entry.
	FaultLinkDelay = fault.LinkDelay
	// ChaosSpec tunes RandomFaultPlan's fault mix.
	ChaosSpec = fault.Chaos
)

// None is the sentinel "no node" value.
const None = graph.None

// RandomFaultPlan samples a reproducible fault plan for g: crashes and
// churn windows at seeded random nodes and rounds, plus lossy and slow
// links, with the mix tuned by spec. Same (seed, graph, spec) — same
// plan. The chaos suite drives services through plans built here.
func RandomFaultPlan(seed uint64, g *Graph, spec ChaosSpec) *FaultPlan {
	return fault.RandomPlan(seed, g, spec)
}

// NewGraph returns an empty graph on n vertices; add edges with AddEdge /
// AddWeightedEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// DefaultParams returns the practical parameterization (λ = √(ℓD), η = 1).
func DefaultParams() Params { return core.DefaultParams() }

// DNP09Params returns the PODC 2009 baseline parameterization
// (Õ(ℓ^{2/3}D^{1/3}) rounds).
func DNP09Params(ell, diam int) Params { return core.DNP09Params(ell, diam) }

// Generators for the graph families used in the paper's setting. All
// randomized generators are deterministic in the seed and retry until the
// sample is connected.

// Path returns the path graph on n nodes.
func Path(n int) (*Graph, error) { return graph.Path(n) }

// Cycle returns the cycle on n >= 3 nodes.
func Cycle(n int) (*Graph, error) { return graph.Cycle(n) }

// Complete returns the complete graph K_n.
func Complete(n int) (*Graph, error) { return graph.Complete(n) }

// Star returns the star with center 0.
func Star(n int) (*Graph, error) { return graph.Star(n) }

// Grid returns the rows x cols grid.
func Grid(rows, cols int) (*Graph, error) { return graph.Grid(rows, cols) }

// Torus returns the rows x cols torus (dims >= 3).
func Torus(rows, cols int) (*Graph, error) { return graph.Torus(rows, cols) }

// Hypercube returns the dim-dimensional hypercube.
func Hypercube(dim int) (*Graph, error) { return graph.Hypercube(dim) }

// Candy returns a clique with a path tail — a diameter-vs-density knob.
func Candy(cliqueSize, pathLen int) (*Graph, error) { return graph.Candy(cliqueSize, pathLen) }

// Barbell returns two cliques joined by a path.
func Barbell(cliqueSize, pathLen int) (*Graph, error) { return graph.Barbell(cliqueSize, pathLen) }

// RandomRegular returns a connected random d-regular graph.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	return graph.ConnectedRandomRegular(n, d, rng.New(seed), 1000)
}

// ErdosRenyi returns a connected G(n, p) sample.
func ErdosRenyi(n int, p float64, seed uint64) (*Graph, error) {
	return graph.ConnectedER(n, p, rng.New(seed), 1000)
}

// GeometricRandom returns a connected random geometric graph — the
// paper's ad-hoc-network model. Pass radius <= 0 for a radius just above
// the connectivity threshold.
func GeometricRandom(n int, radius float64, seed uint64) (*Graph, error) {
	if radius <= 0 {
		radius = graph.RGGThresholdRadius(n)
	}
	return graph.ConnectedRGG(n, radius, rng.New(seed), 1000)
}

// ValidateSpanningTree checks a parent array against g.
func ValidateSpanningTree(g *Graph, root NodeID, parent []NodeID) error {
	return spanning.ValidateTree(g, root, parent)
}

// Reference (centralized) quantities used for validation.

// WalkDistribution returns the exact t-step walk distribution from src.
func WalkDistribution(g *Graph, src NodeID, t int) ([]float64, error) {
	v, err := dist.WalkDist(g, src, t)
	return []float64(v), err
}

// MHWalkDistribution returns the exact t-step distribution of the
// Metropolis-Hastings walk with uniform target (enable sampling of it
// with Params.Metropolis).
func MHWalkDistribution(g *Graph, src NodeID, t int) ([]float64, error) {
	v, err := dist.MHWalkDist(g, src, t)
	return []float64(v), err
}

// StationaryDistribution returns π(v) = deg(v)/2m.
func StationaryDistribution(g *Graph) ([]float64, error) {
	v, err := dist.Stationary(g)
	return []float64(v), err
}

// ExactMixingTime returns τ^x(ε) computed by exact iteration.
func ExactMixingTime(g *Graph, x NodeID, eps float64, tMax int) (int, error) {
	return spectral.MixingTimeFrom(g, x, eps, tMax)
}

// SpectralGap returns 1 − λ₂ of the walk's transition matrix (dense
// eigensolver; small graphs).
func SpectralGap(g *Graph) (float64, error) { return spectral.SpectralGap(g) }

// EpsMix is the ε in the paper's mixing-time definition, 1/(2e).
const EpsMix = spectral.EpsMix
