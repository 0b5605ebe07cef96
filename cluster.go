package distwalk

// Cluster mode (WithCluster): the transport layer of every worker's
// network runs inside remote distwalkd engines, one session per engine
// per worker. Everything cluster mode adds to a Service sits behind
// clusterPool; the Service only calls its methods. A job runs on the
// engines or fails typed: a lost engine fails it with ErrClusterEngine,
// and the worker's next job redials the session.

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

// clusterPool is a Service's cluster mode: the engine addresses, what
// every handshake shares (seed, fault plan), per-engine health and
// traffic, and every worker's session group.
type clusterPool struct {
	addrs []string
	seed  uint64
	fplan *fault.Plan

	// Per engine: whether its last session was lost or its last dial
	// failed (Stats' Health), and the traffic block every worker's
	// session with it adds to.
	lost  []atomic.Bool
	tally []wire.EngineCounters

	// groups are every worker's sessions, reached only by teardown.
	groups []*sessionGroup
}

// sessionGroup is one worker's sessions, one per engine, and the network
// they carry. g is the graph the sessions serve and hello the handshake
// that builds it (shard 0's; its Bounds are the shard plan): a session
// is built from its own Hello, so it serves g for its lifetime. Entries
// go nil when a session is lost, until the worker's next cluster run
// redials them. Only its worker touches it (and teardown, once the
// workers are gone): a session starts no goroutine and holds no lock.
type sessionGroup struct {
	net   *congest.Network
	conns []*wire.EngineConn
	g     *Graph
	hello wire.Hello
}

// newClusterPool validates the engine list against g. No session is
// dialed until join. Mutations keep the node count, so the check holds
// for every graph the service will serve.
func newClusterPool(addrs []string, seed uint64, fplan *fault.Plan, g *Graph) (*clusterPool, error) {
	if len(addrs) > g.N() {
		return nil, fmt.Errorf("%w: %d cluster engines for a %d-node graph",
			ErrClusterConfig, len(addrs), g.N())
	}
	return &clusterPool{
		addrs: addrs,
		seed:  seed,
		fplan: fplan,
		lost:  make([]atomic.Bool, len(addrs)),
		tally: make([]wire.EngineCounters, len(addrs)),
	}, nil
}

// join dials a session group serving g for a worker's network and
// attaches the network to it. The group belongs to the pool from the
// start, so teardown also closes the sessions of a failed join.
func (p *clusterPool) join(n *congest.Network, g *Graph) (*sessionGroup, error) {
	sg := &sessionGroup{net: n, conns: make([]*wire.EngineConn, len(p.addrs))}
	p.groups = append(p.groups, sg)
	p.serve(sg, g)
	return sg, p.attach(context.Background(), sg)
}

// serve points sg at g: its sessions are dialed with g's handshake from
// now on. The group must hold no session.
func (p *clusterPool) serve(sg *sessionGroup, g *Graph) {
	sg.g, sg.hello = g, wire.HelloFor(g, len(p.addrs), 0, 1, p.seed, p.fplan)
}

// exec runs a job on sg's engines: the session bracket per-key attempts
// and batches share. A job whose snapshot graph is not the one sg's
// sessions serve drops them and redials with the snapshot's handshake,
// so a job admitted before a mutation runs on the engines against its
// own snapshot; a job on the graph the sessions serve redials nothing.
// Then, in this order, sync brings the detached network to the job's
// snapshot (Reshape refuses an attached network), missing
// sessions are dialed within ctx and the network attaches. The round
// deadline follows ctx, and a run that broke any session drops the whole
// group (see drop).
func (p *clusterPool) exec(ctx context.Context, sg *sessionGroup, g *Graph, sync, run func() error) error {
	if sg.g != g {
		p.drop(sg, nil)
		p.serve(sg, g)
	}
	if err := sync(); err != nil {
		return err
	}
	if err := p.attach(ctx, sg); err != nil {
		return err
	}
	p.arm(ctx, sg)
	err := run()
	if sg.broken() {
		p.drop(sg, err)
	}
	return err
}

// attach dials sg's missing sessions with its handshake within ctx and
// attaches the network to the group under the handshake's shard bounds.
// With every session present and attached it is a no-op. exec drops a
// group whose run broke a session, so no session attach finds is broken.
func (p *clusterPool) attach(ctx context.Context, sg *sessionGroup) error {
	for i, c := range sg.conns {
		if c != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("distwalk: cluster engine %d (%s) not redialed: %w", i, p.addrs[i], err)
		}
		h := sg.hello
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
	return sg.net.ConnectRemote(group, sg.hello.Bounds)
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

// drop tears down every session of sg and detaches its network. A
// session has at most two requests outstanding (a round's Push and the
// next round's Deliver), and the round loop writes to all engines before
// reading any reply — once one engine fails mid-run, the surviving
// sessions may hold unread replies and cannot be trusted with another
// run, so the whole group goes. The failing engine
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
// sessions leave holes).
func (sg *sessionGroup) close() {
	for i, c := range sg.conns {
		if c != nil {
			c.Close()
			sg.conns[i] = nil
		}
	}
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
	var out ClusterStats
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
