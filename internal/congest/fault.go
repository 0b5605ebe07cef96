package congest

import (
	"errors"
	"fmt"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// Typed fault taxonomy. ErrBadFault reports invalid fault configuration
// (a malformed, out-of-range or non-edge-referencing plan);
// it is recorded on the Network at construction and returned by Run, so
// option application itself stays infallible. ErrNodeCrashed and
// ErrMessageLost are run-time outcomes: the protocol layer converts a
// run that stalled or came up short while the engine recorded a token
// loss into one of these (see Network.LossError), so drivers fail fast
// with a typed, retryable error instead of burning the round budget.
var (
	// ErrBadFault reports an invalid fault specification.
	ErrBadFault = errors.New("congest: invalid fault specification")
	// ErrNodeCrashed reports a protocol token lost to a crashed (down)
	// node. errors.As against *NodeCrashedError exposes the node and round.
	ErrNodeCrashed = errors.New("congest: node crashed")
	// ErrMessageLost reports a protocol message lost to a lossy link.
	// errors.As against *MessageLostError exposes the link and round.
	ErrMessageLost = errors.New("congest: message lost on lossy link")
)

// NodeCrashedError is the typed form of ErrNodeCrashed: the first
// message of the failed request that was dropped at a down receiver.
type NodeCrashedError struct {
	// Node is the down receiver the message was addressed to.
	Node graph.NodeID
	// Round is the simulated round of the loss.
	Round int
}

func (e *NodeCrashedError) Error() string {
	return fmt.Sprintf("congest: node %d crashed (message lost at round %d)", e.Node, e.Round)
}

// Unwrap makes the error match ErrNodeCrashed under errors.Is.
func (e *NodeCrashedError) Unwrap() error { return ErrNodeCrashed }

// MessageLostError is the typed form of ErrMessageLost: the first
// message of the failed request that a lossy link dropped.
type MessageLostError struct {
	// From, To identify the directed link that lost the message.
	From, To graph.NodeID
	// Round is the simulated round of the loss.
	Round int
}

func (e *MessageLostError) Error() string {
	return fmt.Sprintf("congest: message %d->%d lost on lossy link at round %d", e.From, e.To, e.Round)
}

// Unwrap makes the error match ErrMessageLost under errors.Is.
func (e *MessageLostError) Unwrap() error { return ErrMessageLost }

// FaultStats aggregates the injected-fault footprint of one or more runs.
// The zero value means no fault fired.
type FaultStats struct {
	// Dropped counts messages lost to down receivers (plan crashes and
	// churn windows).
	Dropped int64 `metric:"dropped_total,counter"`
	// LinkDropped counts messages lost to lossy-link sampling.
	LinkDropped int64 `metric:"link_dropped_total,counter"`
	// Delayed counts delivery opportunities deferred by link delays (one
	// per edge per skipped round).
	Delayed int64 `metric:"delayed_total,counter"`
	// Crashed is the number of nodes that were down at some point during
	// the run. Like MaxQueue it is a high-water mark, not a sum: Add keeps
	// the maximum across phases.
	Crashed int `metric:"crashed,gauge"`
}

// add accumulates other into f; see Result.Add for the summing contract.
func (f *FaultStats) add(other FaultStats) {
	f.Dropped += other.Dropped
	f.LinkDropped += other.LinkDropped
	f.Delayed += other.Delayed
	if other.Crashed > f.Crashed {
		f.Crashed = other.Crashed
	}
}

// LossRecord is a first injected-fault message loss. Each edge half
// keeps the first one of its run; the network keeps the first since it
// was (re)seeded — the minimum (round, edge) over its halves, see collect
// — which the protocol layer turns into the typed fault error for the
// whole request, so it persists across the several engine runs a request
// performs and is cleared by Reseed. Remote engines ship theirs over the
// wire at run end.
type LossRecord struct {
	Valid bool
	Link  bool // lossy-link drop (vs down-receiver drop)
	Round int32
	Edge  int32 // global directed-edge index, for the merge order
	From  graph.NodeID
	To    graph.NodeID
}

// LossError returns a typed error describing the first message lost to
// an injected fault since the last Reseed (nil if none): a
// *NodeCrashedError for a message dropped at a down receiver, a
// *MessageLostError for a lossy-link drop. Protocol drivers call it to
// convert a stalled or incomplete run into a typed, retryable failure.
func (n *Network) LossError() error {
	l := n.loss
	if !l.Valid {
		return nil
	}
	if l.Link {
		return &MessageLostError{From: l.From, To: l.To, Round: int(l.Round)}
	}
	return &NodeCrashedError{Node: l.To, Round: int(l.Round)}
}

// faultState is a fault.Plan compiled against one network: per-node down
// schedules and per-edge drop thresholds / delays, plus the per-run
// decision state (drop ordinals, delay release rounds). All slices are
// indexed by global node/edge index; nil slices mean "no fault of that
// kind", so the fault-free hot path pays one nil check.
type faultState struct {
	plan *fault.Plan
	key  uint64 // plan decision key (fault.Key(plan.Seed))

	downFrom []int32       // per node: plan crash round (-1 = never)
	winOff   []int32       // per node: offsets into wins (len n+1)
	wins     []fault.Churn // churn windows grouped by node

	drop    []uint64 // per edge: drop threshold for fault.Roll draws
	seq     []uint64 // per edge: drop-decision ordinal (run state)
	delay   []int32  // per edge: fixed delay in rounds
	release []int32  // per edge: earliest delivery round (run state)
}

// resetRun clears the per-run decision state; compiled schedules stay.
func (f *faultState) resetRun() {
	if f.seq != nil {
		clear(f.seq)
	}
	if f.release != nil {
		clear(f.release)
	}
}

// lossless reports whether the compiled plan can lose no message: no
// crash, no churn window, no lossy link (delays only defer delivery). A
// nil plan is lossless.
func (f *faultState) lossless() bool {
	return f == nil || (f.downFrom == nil && f.winOff == nil && f.drop == nil)
}

// down reports whether the plan has v down at the given round.
func (f *faultState) down(v graph.NodeID, round int) bool {
	if f.downFrom != nil && f.downFrom[v] >= 0 && int32(round) >= f.downFrom[v] {
		return true
	}
	if f.winOff != nil {
		for _, w := range f.wins[f.winOff[v]:f.winOff[v+1]] {
			if round >= w.From && round < w.To {
				return true
			}
		}
	}
	return false
}

// downEver reports whether the plan had v down at any round in [0, round].
func (f *faultState) downEver(v graph.NodeID, round int) bool {
	if f.downFrom != nil && f.downFrom[v] >= 0 && f.downFrom[v] <= int32(round) {
		return true
	}
	if f.winOff != nil {
		for _, w := range f.wins[f.winOff[v]:f.winOff[v+1]] {
			if w.From <= round {
				return true
			}
		}
	}
	return false
}

// downCount counts the nodes that were down at some point during the
// ended run — the Crashed high-water mark reported in Result.Faults.
func (n *Network) downCount() int {
	c := 0
	for v := 0; v < n.g.N(); v++ {
		if n.flt.downEver(graph.NodeID(v), n.round) {
			c++
		}
	}
	return c
}

// SetFaultPlan installs (or, with nil, clears) a deterministic fault
// plan: scripted crashes and churn windows, lossy links and link delays,
// all charged into Result.Faults (see internal/fault for the plan model
// and the determinism argument). The plan is validated against the
// topology — out-of-range nodes, malformed windows or link entries that
// are not edges fail with an error wrapping ErrBadFault (and
// fault.ErrBadPlan where the plan itself is malformed). Not safe to call
// concurrently with Run.
func (n *links) SetFaultPlan(p *fault.Plan) error {
	if p == nil {
		n.flt = nil
		return nil
	}
	if err := p.Validate(n.g.N()); err != nil {
		return fmt.Errorf("%w: %w", ErrBadFault, err)
	}
	f := &faultState{plan: p, key: fault.Key(p.Seed)}
	nn := n.g.N()
	if len(p.Crashes) > 0 {
		f.downFrom = make([]int32, nn)
		for v := range f.downFrom {
			f.downFrom[v] = -1
		}
		for _, c := range p.Crashes {
			if r := int32(c.Round); f.downFrom[c.Node] < 0 || r < f.downFrom[c.Node] {
				f.downFrom[c.Node] = r
			}
		}
	}
	if len(p.Churn) > 0 {
		f.winOff = make([]int32, nn+1)
		for _, w := range p.Churn {
			f.winOff[w.Node+1]++
		}
		for v := 0; v < nn; v++ {
			f.winOff[v+1] += f.winOff[v]
		}
		f.wins = make([]fault.Churn, len(p.Churn))
		fill := make([]int32, nn)
		for _, w := range p.Churn {
			f.wins[f.winOff[w.Node]+fill[w.Node]] = w
			fill[w.Node]++
		}
	}
	total := len(n.queues)
	if p.DropProb > 0 || len(p.LinkDrops) > 0 {
		f.drop = make([]uint64, total)
		if th := fault.Threshold(p.DropProb); th > 0 {
			for e := range f.drop {
				f.drop[e] = th
			}
		}
		for _, l := range p.LinkDrops {
			edges, err := n.linkEdges(l.From, l.To)
			if err != nil {
				return err
			}
			th := fault.Threshold(l.Prob)
			for _, e := range edges {
				f.drop[e] = th
			}
		}
		f.seq = make([]uint64, total)
	}
	if len(p.LinkDelays) > 0 {
		f.delay = make([]int32, total)
		for _, l := range p.LinkDelays {
			edges, err := n.linkEdges(l.From, l.To)
			if err != nil {
				return err
			}
			for _, e := range edges {
				if int32(l.Rounds) > f.delay[e] {
					f.delay[e] = int32(l.Rounds)
				}
			}
		}
		f.release = make([]int32, total)
	}
	n.flt = f
	return nil
}

// FaultPlan returns the installed fault plan (nil if none).
func (n *Network) FaultPlan() *fault.Plan {
	if n.flt == nil {
		return nil
	}
	return n.flt.plan
}

// linkEdges resolves the directed link from→to to its directed edge
// indices (several with parallel edges), or fails with ErrBadFault when
// the pair is not an edge of the graph.
func (n *links) linkEdges(from, to graph.NodeID) ([]int32, error) {
	i := n.nbrIndex(from, to)
	if i < 0 {
		return nil, fmt.Errorf("%w: fault plan references %d->%d, which is not an edge", ErrBadFault, from, to)
	}
	var out []int32
	for j := i; j < n.off[from+1] && n.nbrTo[j] == int32(to); j++ {
		out = append(out, n.nbrEdge[j])
	}
	return out, nil
}

// WithFaultPlan installs a fault plan at construction; see SetFaultPlan.
// An invalid plan is recorded on the network and returned by Run.
func WithFaultPlan(p *fault.Plan) Option {
	return func(n *Network) {
		if err := n.SetFaultPlan(p); err != nil && n.optErr == nil {
			n.optErr = err
		}
	}
}
