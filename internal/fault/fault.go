// Package fault defines deterministic fault plans for the simulated
// CONGEST engine: crash-stop faults, scripted churn windows, lossy links
// and fixed link delays, all drawn from a dedicated seeded decision
// stream so a given (plan seed, graph, request) reproduces bit-identical
// faults — sequentially and under any shard count. See doc.go for the
// determinism argument.
package fault

import (
	"errors"
	"fmt"
	"math"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// ErrBadPlan reports an invalid fault plan (node out of range, malformed
// window, probability outside [0,1], ...). The engine wraps it into its
// own typed fault-configuration error at installation time.
var ErrBadPlan = errors.New("fault: invalid fault plan")

// Crash is a crash-stop fault: from Round onward the node neither
// executes nor receives, permanently.
type Crash struct {
	Node  graph.NodeID
	Round int
}

// Churn is a scripted down window: the node is down for rounds
// [From, To) and resumes afterwards. A recovered node does not retain
// self-scheduled activity (SetActive) from before the window; it resumes
// stepping when the next message reaches it.
type Churn struct {
	Node     graph.NodeID
	From, To int
}

// LinkDrop sets the message-drop probability of the directed link
// From → To (all parallel edges of that link), overriding the plan's
// global DropProb. Faults are directed: add both orientations to make a
// link symmetrically lossy.
type LinkDrop struct {
	From, To graph.NodeID
	Prob     float64
}

// LinkDelay adds a fixed delay to the directed link From → To: a message
// entering an idle delayed link is delivered Rounds rounds later than the
// model's next-round delivery, and the link serializes to one delivery
// per 1+Rounds rounds while backed up (a slow link is also a narrow one).
type LinkDelay struct {
	From, To graph.NodeID
	Rounds   int
}

// Plan is a deterministic fault schedule. The zero value injects nothing.
// Seed feeds the plan's private decision stream (independent of the
// network seed and of every protocol draw), so the same plan
// produces the same faults regardless of what runs on the network.
type Plan struct {
	// Seed drives the plan's random decisions (lossy-link sampling).
	Seed uint64
	// DropProb is the global per-message drop probability applied to every
	// directed edge (0 = lossless unless a LinkDrop says otherwise).
	DropProb float64
	// Crashes lists permanent crash-stop faults.
	Crashes []Crash
	// Churn lists temporary down windows.
	Churn []Churn
	// LinkDrops lists per-link drop-probability overrides.
	LinkDrops []LinkDrop
	// LinkDelays lists per-link fixed delays.
	LinkDelays []LinkDelay
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil ||
		(p.DropProb == 0 && len(p.Crashes) == 0 && len(p.Churn) == 0 &&
			len(p.LinkDrops) == 0 && len(p.LinkDelays) == 0)
}

// Validate checks the plan against a graph of n nodes: node IDs in
// [0, n), probabilities in [0, 1], non-negative rounds, well-formed churn
// windows. Whether a LinkDrop/LinkDelay endpoint pair is an actual edge
// is checked by the engine at installation, which owns the adjacency.
func (p *Plan) Validate(n int) error {
	checkNode := func(what string, v graph.NodeID) error {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: %s node %d not in [0,%d)", ErrBadPlan, what, v, n)
		}
		return nil
	}
	for _, c := range p.Crashes {
		if err := checkNode("crash", c.Node); err != nil {
			return err
		}
		if c.Round < 0 {
			return fmt.Errorf("%w: crash of node %d at negative round %d", ErrBadPlan, c.Node, c.Round)
		}
	}
	for _, c := range p.Churn {
		if err := checkNode("churn", c.Node); err != nil {
			return err
		}
		if c.From < 0 || c.To <= c.From {
			return fmt.Errorf("%w: churn window [%d,%d) of node %d is malformed", ErrBadPlan, c.From, c.To, c.Node)
		}
	}
	if p.DropProb < 0 || p.DropProb > 1 || math.IsNaN(p.DropProb) {
		return fmt.Errorf("%w: drop probability %v outside [0,1]", ErrBadPlan, p.DropProb)
	}
	for _, l := range p.LinkDrops {
		if err := checkNode("lossy-link", l.From); err != nil {
			return err
		}
		if err := checkNode("lossy-link", l.To); err != nil {
			return err
		}
		if l.Prob < 0 || l.Prob > 1 || math.IsNaN(l.Prob) {
			return fmt.Errorf("%w: link %d->%d drop probability %v outside [0,1]", ErrBadPlan, l.From, l.To, l.Prob)
		}
	}
	for _, l := range p.LinkDelays {
		if err := checkNode("delayed-link", l.From); err != nil {
			return err
		}
		if err := checkNode("delayed-link", l.To); err != nil {
			return err
		}
		if l.Rounds < 0 {
			return fmt.Errorf("%w: link %d->%d negative delay %d", ErrBadPlan, l.From, l.To, l.Rounds)
		}
	}
	return nil
}

// Threshold converts a drop probability into the uint64 comparison
// threshold used against Roll draws: a message is dropped when its draw
// is < Threshold(prob). Resolution is the float64 mantissa (2^-53),
// far below any probability a plan would script.
func Threshold(prob float64) uint64 {
	if prob <= 0 {
		return 0
	}
	t := uint64(prob * (1 << 53))
	if t >= 1<<53 { // prob rounded to >= 1
		return math.MaxUint64
	}
	return t << 11
}

// Key derives the plan's decision key from its seed, domain-separated
// from the rng package's stream construction so a plan sharing its seed
// with the network cannot correlate with protocol randomness.
func Key(seed uint64) uint64 {
	return rng.Mix64(seed ^ 0xfa07a11e5eed1234)
}

// Roll returns the uniform 64-bit draw for the seq-th drop decision on
// directed edge e under the given decision key. It is a stateless,
// allocation-free hash (splitmix64 finalizers): the decision depends only
// on (key, edge, per-edge decision ordinal), never on global
// interleaving, which is what makes lossy links bit-identical between
// the sequential and sharded engines (each edge's deliveries form the
// same ordinal sequence in both).
func Roll(key, e, seq uint64) uint64 {
	return rng.Mix64(key ^ rng.Mix64(e+0x9e3779b97f4a7c15) ^ (seq+1)*0xd1342543de82ef95)
}

// Chaos tunes RandomPlan's fault mix. Zero fields inject nothing of that
// kind.
type Chaos struct {
	// Crashes is the number of permanent crash-stop faults.
	Crashes int
	// Churns is the number of temporary down windows.
	Churns int
	// MaxRound bounds fault onsets (and churn windows) to [0, MaxRound);
	// 0 defaults to 1000.
	MaxRound int
	// DropProb is the global per-message drop probability.
	DropProb float64
	// LossyLinks is the number of directed links given an elevated drop
	// probability (up to 50x DropProb, capped at 0.2).
	LossyLinks int
	// SlowLinks is the number of directed links given a fixed delay.
	SlowLinks int
	// MaxDelay bounds the per-link delays; 0 defaults to 4 rounds.
	MaxDelay int
}

// RandomPlan draws a randomized fault plan over g from seed: crash/churn
// victims, window bounds and link picks all come from one dedicated RNG
// stream, so the plan (and therefore the whole faulty execution) is a
// pure function of (seed, graph, tuning). The chaos suite uses it to
// sweep seeds; equal seeds must reproduce equal plans bit for bit.
func RandomPlan(seed uint64, g *graph.G, c Chaos) *Plan {
	r := rng.New(Key(seed)).Stream(0xc4a05)
	n := g.N()
	maxRound := c.MaxRound
	if maxRound <= 0 {
		maxRound = 1000
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 4
	}
	p := &Plan{Seed: seed, DropProb: c.DropProb}
	for i := 0; i < c.Crashes && n > 1; i++ {
		p.Crashes = append(p.Crashes, Crash{
			Node:  graph.NodeID(r.Intn(n)),
			Round: r.Intn(maxRound),
		})
	}
	for i := 0; i < c.Churns && n > 1; i++ {
		from := r.Intn(maxRound)
		p.Churn = append(p.Churn, Churn{
			Node: graph.NodeID(r.Intn(n)),
			From: from,
			To:   from + 1 + r.Intn(maxRound),
		})
	}
	pickLink := func() (graph.NodeID, graph.NodeID, bool) {
		v := graph.NodeID(r.Intn(n))
		nbrs := g.Neighbors(v)
		if len(nbrs) == 0 {
			return 0, 0, false
		}
		return v, nbrs[r.Intn(len(nbrs))].To, true
	}
	for i := 0; i < c.LossyLinks; i++ {
		from, to, ok := pickLink()
		if !ok {
			continue
		}
		prob := c.DropProb * float64(1+r.Intn(50))
		if prob > 0.2 {
			prob = 0.2
		}
		p.LinkDrops = append(p.LinkDrops, LinkDrop{From: from, To: to, Prob: prob})
	}
	for i := 0; i < c.SlowLinks; i++ {
		from, to, ok := pickLink()
		if !ok {
			continue
		}
		p.LinkDelays = append(p.LinkDelays, LinkDelay{From: from, To: to, Rounds: 1 + r.Intn(maxDelay)})
	}
	return p
}
