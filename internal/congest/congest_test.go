package congest

import (
	"errors"
	"math/bits"
	"testing"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

type intPayload int

func (intPayload) Words() int   { return 1 }
func (intPayload) Kind() uint16 { return 100 }
func (p intPayload) Encode() [PayloadWords]uint64 {
	return [PayloadWords]uint64{uint64(int64(p))}
}
func (intPayload) Decode(w [PayloadWords]uint64) intPayload {
	return intPayload(int64(w[0]))
}

// msg is p as a tree-primitive item.
func (p intPayload) msg() Message { return MakeMessage(0, 0, p.Kind(), p.Words(), p.Encode()) }

// readInt reads an intPayload item.
func readInt(m *Message) intPayload { return As[intPayload](*m) }

// sumInts is a Convergecast merge adding intPayload items.
func sumInts(_ graph.NodeID, acc, child *Message) { *acc = (readInt(acc) + readInt(child)).msg() }

// intMsgs is the items callback of an Upcast of intPayloads.
func intMsgs(ps ...intPayload) []Message {
	out := make([]Message, len(ps))
	for i, p := range ps {
		out[i] = p.msg()
	}
	return out
}

// burst sends k messages from node `from` to node `to` during Init and
// records arrivals at `to`.
type burst struct {
	from, to  graph.NodeID
	k         int
	got       int
	lastRound int
}

func (p *burst) Init(ctx *Ctx) {
	if ctx.Node() != p.from {
		return
	}
	for i := 0; i < p.k; i++ {
		Send(ctx, p.to, intPayload(i))
	}
}

func (p *burst) Step(ctx *Ctx) {
	if ctx.Node() != p.to {
		return
	}
	p.got += len(ctx.Inbox())
	p.lastRound = ctx.Round()
}

func pathNet(t *testing.T, n int, seed uint64, opts ...Option) *Network {
	t.Helper()
	g, err := graph.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	return NewNetwork(g, seed, opts...)
}

func TestUnitCapacitySerializesBurst(t *testing.T) {
	net := pathNet(t, 2, 1)
	p := &burst{from: 0, to: 1, k: 5}
	res, err := net.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.got != 5 {
		t.Fatalf("delivered %d of 5", p.got)
	}
	// One message per round on the single edge: last delivery in round 5.
	if res.Rounds != 5 || p.lastRound != 5 {
		t.Fatalf("rounds=%d lastRound=%d, want 5, 5", res.Rounds, p.lastRound)
	}
	if res.Messages != 5 || res.Words != 5 {
		t.Fatalf("messages=%d words=%d, want 5, 5", res.Messages, res.Words)
	}
	if res.MaxQueue != 5 {
		t.Fatalf("max queue %d, want 5", res.MaxQueue)
	}
}

func TestEdgeCapSpeedsUpBurst(t *testing.T) {
	net := pathNet(t, 2, 1, WithEdgeCap(2))
	p := &burst{from: 0, to: 1, k: 5}
	res, err := net.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 { // ceil(5/2)
		t.Fatalf("rounds=%d, want 3", res.Rounds)
	}
}

func TestParallelEdgesDoubleCapacity(t *testing.T) {
	g := graph.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, 1)
	p := &burst{from: 0, to: 1, k: 6}
	res, err := net.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 { // 6 messages over 2 parallel edges
		t.Fatalf("rounds=%d, want 3", res.Rounds)
	}
}

// relay forwards a token along the path to measure per-hop latency.
type relay struct {
	hops     int
	lastNode graph.NodeID
	done     bool
}

func (p *relay) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		Send(ctx, 1, intPayload(0))
	}
}

func (p *relay) Step(ctx *Ctx) {
	v := ctx.Node()
	for range ctx.Inbox() {
		p.hops++
		p.lastNode = v
		// Forward away from 0 until the end of the path.
		next := v + 1
		if int(next) < ctx.N() {
			Send(ctx, next, intPayload(0))
		} else {
			p.done = true
		}
	}
}

func TestRelayLatencyOneHopPerRound(t *testing.T) {
	net := pathNet(t, 6, 2)
	p := &relay{}
	res, err := net.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.done || p.lastNode != 5 {
		t.Fatalf("token did not reach the end: done=%v last=%d", p.done, p.lastNode)
	}
	if res.Rounds != 5 {
		t.Fatalf("rounds=%d, want 5 (one hop per round)", res.Rounds)
	}
}

type noop struct{}

func (noop) Init(*Ctx) {}
func (noop) Step(*Ctx) {}

func TestEmptyProtocolZeroRounds(t *testing.T) {
	net := pathNet(t, 3, 3)
	res, err := net.Run(noop{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("empty run cost rounds=%d msgs=%d", res.Rounds, res.Messages)
	}
}

type badSender struct{}

func (badSender) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		Send(ctx, 2, intPayload(0)) // 0 and 2 are not adjacent on a path of 3
	}
}
func (badSender) Step(*Ctx) {}

func TestSendToNonNeighborFails(t *testing.T) {
	net := pathNet(t, 3, 4)
	if _, err := net.Run(badSender{}); err == nil {
		t.Fatal("send to non-neighbor accepted")
	}
}

// zeroWords violates the Payload contract (Words() must be >= 1).
type zeroWords struct{}

func (zeroWords) Words() int                            { return 0 }
func (zeroWords) Kind() uint16                          { return 101 }
func (zeroWords) Encode() [PayloadWords]uint64          { return [PayloadWords]uint64{} }
func (zeroWords) Decode([PayloadWords]uint64) zeroWords { return zeroWords{} }

type badPayloadSender struct{}

func (badPayloadSender) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		Send(ctx, 1, zeroWords{})
	}
}
func (badPayloadSender) Step(*Ctx) {}

func TestInvalidPayloadFails(t *testing.T) {
	net := pathNet(t, 2, 4)
	if _, err := net.Run(badPayloadSender{}); err == nil {
		t.Fatal("zero-word payload accepted")
	}
}

// pingpong bounces a token between nodes 0 and 1 forever.
type pingpong struct{}

func (pingpong) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		Send(ctx, 1, intPayload(0))
	}
}

func (pingpong) Step(ctx *Ctx) {
	for _, m := range ctx.Inbox() {
		Send(ctx, m.From, intPayload(0))
	}
}

func TestMaxRoundsLimit(t *testing.T) {
	net := pathNet(t, 2, 5, WithMaxRounds(50))
	_, err := net.Run(pingpong{})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("want ErrRoundLimit, got %v", err)
	}
}

// haltAfter ping-pongs but reports Halted once enough rounds passed.
type haltAfter struct {
	pingpong
	net   *Network
	limit int
}

func (h *haltAfter) Halted() bool { return h.net.res.Rounds >= h.limit }

func TestHalterStopsRun(t *testing.T) {
	net := pathNet(t, 2, 6)
	h := &haltAfter{net: net, limit: 7}
	res, err := net.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 7 {
		t.Fatalf("rounds=%d, want halt at 7", res.Rounds)
	}
}

// selfTicker counts rounds it gets stepped while active, without messages.
type selfTicker struct {
	steps int
	quota int
}

func (p *selfTicker) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		ctx.SetActive(true)
	}
}

func (p *selfTicker) Step(ctx *Ctx) {
	if ctx.Node() != 0 {
		return
	}
	p.steps++
	if p.steps >= p.quota {
		ctx.SetActive(false)
	}
}

func TestSetActiveDrivesSteps(t *testing.T) {
	net := pathNet(t, 2, 7)
	p := &selfTicker{quota: 4}
	res, err := net.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.steps != 4 || res.Rounds != 4 {
		t.Fatalf("steps=%d rounds=%d, want 4, 4", p.steps, res.Rounds)
	}
}

// drawPort is the test protocols' keyed draw: a uniform port of the
// executing node for its i-th send this round, a function of the
// network's seed, the node, the round and i alone.
func drawPort(ctx *Ctx, i int) int {
	x := rng.Mix64(rng.Mix64(rng.Mix64(ctx.SeedMix()^uint64(ctx.Node()))^uint64(ctx.Round())) ^ uint64(i))
	hi, _ := bits.Mul64(x, uint64(ctx.Degree()))
	return int(hi)
}

// randomWalker forwards a token to a uniformly random neighbor `hops`
// times, recording the trajectory.
type randomWalker struct {
	hops int
	path []graph.NodeID
}

func (p *randomWalker) Init(ctx *Ctx) {
	if ctx.Node() == 0 {
		p.path = append(p.path, 0)
		if p.hops > 0 {
			Send(ctx, ctx.Neighbors()[drawPort(ctx, 0)].To, intPayload(p.hops-1))
		}
	}
}

func (p *randomWalker) Step(ctx *Ctx) {
	for _, m := range ctx.Inbox() {
		p.path = append(p.path, ctx.Node())
		rem := int(As[intPayload](m))
		if rem > 0 {
			Send(ctx, ctx.Neighbors()[drawPort(ctx, 0)].To, intPayload(rem-1))
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) []graph.NodeID {
		net := NewNetwork(g, seed)
		p := &randomWalker{hops: 200}
		if _, err := net.Run(p); err != nil {
			t.Fatal(err)
		}
		return p.path
	}
	a, b := run(99), run(99)
	if len(a) != len(b) || len(a) != 201 {
		t.Fatalf("path lengths %d, %d; want 201", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at hop %d", i)
		}
	}
	c := run(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-hop walks")
	}
}

func TestNetworkReusableAcrossRuns(t *testing.T) {
	net := pathNet(t, 4, 8)
	for i := 0; i < 3; i++ {
		p := &burst{from: 0, to: 1, k: 3}
		res, err := net.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if p.got != 3 || res.Rounds != 3 {
			t.Fatalf("run %d: got=%d rounds=%d", i, p.got, res.Rounds)
		}
	}
}

func TestResultAdd(t *testing.T) {
	a := Result{Rounds: 3, Messages: 10, Words: 12, MaxQueue: 2}
	a.Add(Result{Rounds: 4, Messages: 1, Words: 1, MaxQueue: 5})
	want := Result{Rounds: 7, Messages: 11, Words: 13, MaxQueue: 5}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}
