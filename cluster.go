package distwalk

// Cluster mode (WithCluster): the transport layer of every worker's
// network runs inside remote distwalkd engines, one session per engine
// per worker. Everything cluster mode adds to a Service sits behind
// clusterPool; the Service only calls its methods.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"distwalk/internal/congest"
	"distwalk/internal/fault"
	"distwalk/internal/wire"
)

// Per-exchange deadline of cluster runs: the job context's remaining
// budget, or clusterRoundTimeout when the context has none, never below
// clusterRoundFloor (see clusterPool.arm).
const (
	clusterRoundTimeout = 30 * time.Second
	clusterRoundFloor   = 100 * time.Millisecond
)

// errClusterMoved is clusterPool.exec's report that the remote engines do
// not (or no longer) serve the job's topology; nothing ran. The executor
// runs such a job on local shards, so the error never reaches a caller.
var errClusterMoved = errors.New("cluster serves another topology generation")

// clusterPlan pins the graph the cluster's remote engines are currently
// built for and the handshake that builds them (shard 0's Hello; its
// Bounds are the shard plan). A rotation replaces the whole plan in one
// store, so a worker that dials sessions and then re-reads the plan can
// detect a rotation that raced its dials.
type clusterPlan struct {
	g     *Graph
	hello wire.Hello
}

// clusterPool is a Service's cluster mode: the engine addresses, the plan
// the engines currently serve, per-engine health and traffic, the
// failover counter and every worker's session group.
type clusterPool struct {
	addrs []string
	seed  uint64
	fplan *fault.Plan

	// plan is rotated by ApplyMutations (see rotate).
	plan atomic.Pointer[clusterPlan]

	// Per engine: whether its last session was lost or its last dial
	// failed (Stats' Health), and the traffic block every worker's
	// session with it adds to.
	lost  []atomic.Bool
	tally []wire.EngineCounters

	// failovers counts jobs re-run on local shards after a lost cluster
	// run (see local).
	failovers atomic.Int64

	// groups are every worker's sessions, reached only by teardown.
	groups []*sessionGroup
}

// sessionGroup is one worker's sessions, one per engine, and the network
// they carry. Entries go nil when a session is lost, until the worker's
// next cluster run redials them; plan is the plan the sessions were
// dialed under. Only its worker touches it (and teardown, once the
// workers are gone): a session starts no goroutine and holds no lock.
type sessionGroup struct {
	net   *congest.Network
	conns []*wire.EngineConn
	plan  *clusterPlan
}

// newClusterPool validates the engine list against g (generation gen)
// and pins the initial plan. No session is dialed until join.
func newClusterPool(addrs []string, seed uint64, fplan *fault.Plan, g *Graph, gen uint64) (*clusterPool, error) {
	if len(addrs) > g.N() {
		return nil, fmt.Errorf("%w: %d cluster engines for a %d-node graph",
			ErrClusterConfig, len(addrs), g.N())
	}
	p := &clusterPool{
		addrs: addrs,
		seed:  seed,
		fplan: fplan,
		lost:  make([]atomic.Bool, len(addrs)),
		tally: make([]wire.EngineCounters, len(addrs)),
	}
	return p, p.rotate(g, gen)
}

// rotate pins the plan for serving g at generation gen (graph digest,
// shard plan, edge capacity, fault plan). Every session re-sends its
// handshake with only the shard index varying, which is what pins
// redialed sessions to the same graph digest; a session group dialed
// under an older plan is dropped by its next run, so that redial re-pins
// the engines to the strictly newer generation.
func (p *clusterPool) rotate(g *Graph, gen uint64) error {
	h := wire.HelloFor(g, len(p.addrs), 0, 1, p.seed, p.fplan)
	if len(h.Bounds) != len(p.addrs)+1 {
		return fmt.Errorf("%w: shard plan has %d ranges for %d engines",
			ErrClusterConfig, len(h.Bounds)-1, len(p.addrs))
	}
	h.Gen = gen
	p.plan.Store(&clusterPlan{g: g, hello: h})
	return nil
}

// join dials a session group for a worker's network under the current
// plan and attaches the network to it. The group belongs to the pool from
// the start, so teardown also closes the sessions of a failed join.
func (p *clusterPool) join(n *congest.Network) (*sessionGroup, error) {
	sg := &sessionGroup{net: n, conns: make([]*wire.EngineConn, len(p.addrs))}
	p.groups = append(p.groups, sg)
	return sg, p.attach(context.Background(), sg, p.plan.Load())
}

// exec runs a job on sg's engines: the session bracket per-key attempts
// and batches share. A job pinned to a graph the engines no longer serve
// is refused (errClusterMoved) and healthy sessions are kept for later
// jobs. A group dialed under a superseded plan holds engines built from a
// dead topology and is dropped, so the redial re-pins the engines. Then,
// in this order, sync brings the detached network to the job's snapshot
// (Reshape refuses an attached network), missing sessions are dialed
// within ctx and the network attaches. A mutation racing the dials shows
// as a plan change afterwards, and the job is refused likewise — also
// when an engine another worker already re-pinned rejected the stale
// Hello. The round deadline follows ctx, and a run that broke any
// session drops the whole group (see drop).
func (p *clusterPool) exec(ctx context.Context, sg *sessionGroup, g *Graph, sync, run func() error) error {
	plan := p.plan.Load()
	if plan.g != g {
		return errClusterMoved
	}
	if sg.plan != plan {
		p.drop(sg, nil)
	}
	if err := sync(); err != nil {
		return err
	}
	err := p.attach(ctx, sg, plan)
	if p.plan.Load() != plan {
		return errClusterMoved
	}
	if err != nil {
		return err
	}
	p.arm(ctx, sg)
	err = run()
	if sg.broken() {
		p.drop(sg, err)
	}
	return err
}

// local runs a job on in-process shards — the WithShards(len(addrs))
// path, bit-identical to the cluster run by the identity contract — for
// a job the engines have rotated past, or as a counted failover after a
// lost cluster run. The network detaches; healthy sessions are kept for
// the next current-generation job.
func (p *clusterPool) local(sg *sessionGroup, failover bool, sync, run func() error) error {
	if failover {
		p.failovers.Add(1)
	}
	sg.net.ConnectRemote(nil, nil)
	if err := sync(); err != nil {
		return err
	}
	sg.net.SetShards(len(p.addrs))
	defer sg.net.SetShards(1)
	return run()
}

// attach dials sg's missing sessions with plan's handshake within ctx and
// attaches the network to the group under plan's shard bounds. With every
// session present and attached it is a no-op. exec drops a group whose
// run broke a session, so no session attach finds is broken.
func (p *clusterPool) attach(ctx context.Context, sg *sessionGroup, plan *clusterPlan) error {
	sg.plan = plan
	for i, c := range sg.conns {
		if c != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("distwalk: cluster engine %d (%s) not redialed: %w", i, p.addrs[i], err)
		}
		h := plan.hello
		h.Shard = i
		c, err := wire.DialEngineContext(ctx, p.addrs[i], h, &p.tally[i])
		p.lost[i].Store(err != nil)
		if err != nil {
			return fmt.Errorf("distwalk: cluster engine %d (%s): %w: %w", i, p.addrs[i], ErrClusterEngine, err)
		}
		sg.conns[i] = c
	}
	if sg.net.Remote() > 0 {
		return nil
	}
	group := make([]congest.RemoteShard, len(sg.conns))
	for i, c := range sg.conns {
		group[i] = c
	}
	return sg.net.ConnectRemote(group, plan.hello.Bounds)
}

// arm installs a job's per-exchange deadline on every session: ctx's
// remaining budget (clusterRoundTimeout when ctx has no deadline),
// floored at clusterRoundFloor so a nearly-expired context still gets one
// meaningful exchange (the round loop's own context check handles actual
// expiry).
func (p *clusterPool) arm(ctx context.Context, sg *sessionGroup) {
	t := clusterRoundTimeout
	if dl, ok := ctx.Deadline(); ok {
		t = time.Until(dl)
	}
	t = max(t, clusterRoundFloor)
	for _, c := range sg.conns {
		c.SetRoundTimeout(t)
	}
}

// drop tears down every session of sg and detaches its network. The
// protocol is strictly synchronous per session, but the round loop writes
// to all engines before reading any reply — once one engine fails mid-run,
// the surviving sessions may hold half-exchanged frames and cannot be
// trusted with another run, so the whole group goes. The failing engine
// is marked lost (errors.As digs the shard out of cause).
func (p *clusterPool) drop(sg *sessionGroup, cause error) {
	var le *wire.EngineLostError
	if errors.As(cause, &le) && le.Shard >= 0 && le.Shard < len(p.lost) {
		p.lost[le.Shard].Store(true)
	}
	sg.close()
	sg.net.ConnectRemote(nil, nil)
}

// teardown closes every worker's sessions. The workers must be gone (or
// never started).
func (p *clusterPool) teardown() {
	for _, sg := range p.groups {
		sg.close()
	}
}

// close closes the group's sessions (nil-safe: dial failures and dropped
// sessions leave holes) and forgets the plan they were dialed under.
func (sg *sessionGroup) close() {
	for i, c := range sg.conns {
		if c != nil {
			c.Close()
			sg.conns[i] = nil
		}
	}
	sg.plan = nil
}

// broken reports whether any of the group's sessions failed.
func (sg *sessionGroup) broken() bool {
	for _, c := range sg.conns {
		if c != nil && c.Broken() {
			return true
		}
	}
	return false
}

// stats snapshots the pool's counters. There is one row per engine from
// the start: Stats and /metrics must name every engine before it has
// served anything, which is exactly when a dead one needs to be visible.
func (p *clusterPool) stats() ClusterStats {
	out := ClusterStats{Failovers: p.failovers.Load()}
	for i := range p.tally {
		health := "healthy"
		if p.lost[i].Load() {
			health = "lost"
		}
		out.Engines = append(out.Engines, p.tally[i].Stats(p.addrs[i], i))
		out.Health = append(out.Health, health)
	}
	return out
}
