package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"distwalk/internal/congest"
	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// Payload codecs: fixed-width little-endian fields behind a bounds-checked
// cursor. Every variable-length section validates its count against the
// bytes actually present before allocating, so corrupt counts fail with
// ErrBadFrame instead of over-allocating.

// Protocol identity, carried in every Hello.
const (
	// Magic is the protocol magic number ("DWK1").
	Magic = 0x44574b31
	// Version is the protocol version; both ends must match exactly.
	// Version 2 added Hello.Gen (a topology generation ordinal, no longer
	// read); version 3 retired the Ping/Pong heartbeat frames, so a
	// version-2 client fails at the handshake rather than on its first
	// idle ping.
	Version = 3
)

// Handshake rejection taxonomy: the server answers a bad Hello with an
// Error frame carrying one of these codes, and the client surfaces it as
// a *RemoteError that errors.Is-matches the corresponding sentinel.
const (
	CodeBadMagic     uint16 = 1
	CodeVersion      uint16 = 2
	CodeGeneration   uint16 = 3
	CodeShardIndex   uint16 = 4
	CodeBadPlan      uint16 = 5
	CodeShuttingDown uint16 = 6
	CodeBadFrame     uint16 = 7
	CodeInternal     uint16 = 8
)

// Typed handshake/session errors (see RemoteError).
var (
	// ErrBadMagic reports a Hello without the protocol magic.
	ErrBadMagic = errors.New("wire: bad protocol magic")
	// ErrVersion reports a protocol version mismatch.
	ErrVersion = errors.New("wire: protocol version mismatch")
	// ErrGeneration reports a Hello whose topology digest does not match
	// the edge list it ships.
	ErrGeneration = errors.New("wire: graph generation mismatch")
	// ErrShardIndex reports a shard index outside the handshake's plan,
	// or one a -shard server does not serve.
	ErrShardIndex = errors.New("wire: shard index out of range")
	// ErrBadPlan reports a handshake whose shard bounds or fault plan the
	// engine rejected.
	ErrBadPlan = errors.New("wire: invalid shard or fault plan")
	// ErrShuttingDown reports a server draining toward exit.
	ErrShuttingDown = errors.New("wire: engine shutting down")
	// ErrEngine reports a remote engine failure not covered by a more
	// specific sentinel.
	ErrEngine = errors.New("wire: engine failure")
)

// RemoteError is a typed rejection received from the far side as an
// Error frame. errors.Is matches both the sentinel for its code
// (ErrVersion, ErrGeneration, ErrShardIndex, ...) and the catch-all
// ErrEngine, so callers can dispatch precisely or coarsely.
type RemoteError struct {
	Code uint16
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: engine rejected session (code %d): %s", e.Code, e.Msg)
}

// Unwrap exposes the code's sentinel plus the ErrEngine catch-all.
func (e *RemoteError) Unwrap() []error {
	var s error
	switch e.Code {
	case CodeBadMagic:
		s = ErrBadMagic
	case CodeVersion:
		s = ErrVersion
	case CodeGeneration:
		s = ErrGeneration
	case CodeShardIndex:
		s = ErrShardIndex
	case CodeBadPlan:
		s = ErrBadPlan
	case CodeShuttingDown:
		s = ErrShuttingDown
	case CodeBadFrame:
		s = ErrBadFrame
	default:
		return []error{ErrEngine}
	}
	return []error{s, ErrEngine}
}

type congestMessage = congest.Message

// dec is a bounds-checked little-endian cursor; underflow latches fail
// and reads return zero, so decoders check once at the end.
type dec struct {
	b    []byte
	off  int
	fail bool
}

func (d *dec) u8() uint8 {
	if d.off+1 > len(d.b) {
		d.fail = true
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.off+2 > len(d.b) {
		d.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.off+4 > len(d.b) {
		d.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.off+8 > len(d.b) {
		d.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// rem reports the bytes left, for count-vs-capacity validation.
func (d *dec) rem() int { return len(d.b) - d.off }

// done fails unless the payload decoded cleanly and completely.
func (d *dec) done(what string) error {
	if d.fail {
		return fmt.Errorf("%w: truncated %s payload", ErrBadFrame, what)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes in %s payload", ErrBadFrame, len(d.b)-d.off, what)
	}
	return nil
}

func putU8(b []byte, v uint8) []byte   { return append(b, v) }
func putU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// GraphDigest fingerprints a topology (FNV-1a 64 over the node count and
// the weighted edge list, in insertion order). The handshake carries it
// next to the edge list, and the server refuses (CodeGeneration) a Hello
// whose edges do not hash to it, so a session's engine is built from
// exactly the topology its client declared.
func GraphDigest(g *graph.G) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	edges := g.Edges()
	mix(uint64(g.N()))
	mix(uint64(len(edges)))
	for _, e := range edges {
		mix(uint64(uint32(e.U)))
		mix(uint64(uint32(e.V)))
		mix(math.Float64bits(e.W))
	}
	return h
}

// Hello is the handshake: protocol identity, the graph generation and
// full weighted topology, the shard plan and this session's shard index,
// the engine edge capacity, the request-derivation seed (informational),
// and the fault plan the engine must charge.
type Hello struct {
	Seed   uint64
	Digest uint64
	// Gen is encoded but unread: each session's engine serves the
	// topology its own Hello ships. It stays on the wire until the
	// benchmark probes stop setting it.
	Gen     uint64
	N       int
	Edges   []graph.Edge
	Bounds  []int32
	Shard   int
	EdgeCap int
	Plan    *fault.Plan
}

// HelloFor builds the Hello a client sends for one shard of a cluster
// over g: PlanShards bounds for `engines` shards and the graph's digest.
func HelloFor(g *graph.G, engines, shard, edgeCap int, seed uint64, plan *fault.Plan) Hello {
	return Hello{
		Seed:    seed,
		Digest:  GraphDigest(g),
		N:       g.N(),
		Edges:   g.Edges(),
		Bounds:  congest.PlanShards(g, engines),
		Shard:   shard,
		EdgeCap: edgeCap,
		Plan:    plan,
	}
}

const (
	edgeWire      = 16 // u32 u, u32 v, f64 w
	msgWire       = 44 // u32 from, u32 to, u16 kind, u16 words, 4×u64 payload
	crashWire     = 8
	churnWire     = 12
	linkDropWire  = 16
	linkDelayWire = 12
)

func encodeHello(b []byte, h Hello) []byte {
	b = putU32(b, Magic)
	b = putU16(b, Version)
	b = putU64(b, h.Seed)
	b = putU64(b, h.Digest)
	b = putU64(b, h.Gen)
	b = putU32(b, uint32(h.N))
	b = putU32(b, uint32(len(h.Edges)))
	for _, e := range h.Edges {
		b = putU32(b, uint32(e.U))
		b = putU32(b, uint32(e.V))
		b = putU64(b, math.Float64bits(e.W))
	}
	b = putU32(b, uint32(len(h.Bounds)))
	for _, v := range h.Bounds {
		b = putU32(b, uint32(v))
	}
	b = putU32(b, uint32(h.Shard))
	b = putU32(b, uint32(h.EdgeCap))
	if h.Plan == nil {
		return putU8(b, 0)
	}
	p := h.Plan
	b = putU8(b, 1)
	b = putU64(b, p.Seed)
	b = putU64(b, math.Float64bits(p.DropProb))
	b = putU32(b, uint32(len(p.Crashes)))
	for _, c := range p.Crashes {
		b = putU32(b, uint32(c.Node))
		b = putU32(b, uint32(c.Round))
	}
	b = putU32(b, uint32(len(p.Churn)))
	for _, c := range p.Churn {
		b = putU32(b, uint32(c.Node))
		b = putU32(b, uint32(c.From))
		b = putU32(b, uint32(c.To))
	}
	b = putU32(b, uint32(len(p.LinkDrops)))
	for _, l := range p.LinkDrops {
		b = putU32(b, uint32(l.From))
		b = putU32(b, uint32(l.To))
		b = putU64(b, math.Float64bits(l.Prob))
	}
	b = putU32(b, uint32(len(p.LinkDelays)))
	for _, l := range p.LinkDelays {
		b = putU32(b, uint32(l.From))
		b = putU32(b, uint32(l.To))
		b = putU32(b, uint32(l.Rounds))
	}
	return b
}

func decodeHello(p []byte) (Hello, error) {
	d := &dec{b: p}
	var h Hello
	if magic := d.u32(); !d.fail && magic != Magic {
		return h, fmt.Errorf("%w: 0x%08x", ErrBadMagic, magic)
	}
	if v := d.u16(); !d.fail && v != Version {
		return h, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	h.Seed = d.u64()
	h.Digest = d.u64()
	h.Gen = d.u64()
	h.N = int(d.u32())
	m := int(d.u32())
	if d.fail || m > d.rem()/edgeWire {
		return h, fmt.Errorf("%w: hello edge count %d exceeds payload", ErrBadFrame, m)
	}
	h.Edges = make([]graph.Edge, m)
	for i := range h.Edges {
		h.Edges[i] = graph.Edge{
			U: graph.NodeID(int32(d.u32())),
			V: graph.NodeID(int32(d.u32())),
			W: math.Float64frombits(d.u64()),
		}
	}
	nb := int(d.u32())
	if d.fail || nb > d.rem()/4 {
		return h, fmt.Errorf("%w: hello bounds count %d exceeds payload", ErrBadFrame, nb)
	}
	h.Bounds = make([]int32, nb)
	for i := range h.Bounds {
		h.Bounds[i] = int32(d.u32())
	}
	h.Shard = int(int32(d.u32()))
	h.EdgeCap = int(int32(d.u32()))
	if d.u8() != 0 {
		pl := &fault.Plan{}
		pl.Seed = d.u64()
		pl.DropProb = math.Float64frombits(d.u64())
		nc := int(d.u32())
		if d.fail || nc > d.rem()/crashWire {
			return h, fmt.Errorf("%w: hello crash count %d exceeds payload", ErrBadFrame, nc)
		}
		pl.Crashes = make([]fault.Crash, nc)
		for i := range pl.Crashes {
			pl.Crashes[i] = fault.Crash{Node: graph.NodeID(int32(d.u32())), Round: int(int32(d.u32()))}
		}
		nw := int(d.u32())
		if d.fail || nw > d.rem()/churnWire {
			return h, fmt.Errorf("%w: hello churn count %d exceeds payload", ErrBadFrame, nw)
		}
		pl.Churn = make([]fault.Churn, nw)
		for i := range pl.Churn {
			pl.Churn[i] = fault.Churn{
				Node: graph.NodeID(int32(d.u32())),
				From: int(int32(d.u32())),
				To:   int(int32(d.u32())),
			}
		}
		nd := int(d.u32())
		if d.fail || nd > d.rem()/linkDropWire {
			return h, fmt.Errorf("%w: hello link-drop count %d exceeds payload", ErrBadFrame, nd)
		}
		pl.LinkDrops = make([]fault.LinkDrop, nd)
		for i := range pl.LinkDrops {
			pl.LinkDrops[i] = fault.LinkDrop{
				From: graph.NodeID(int32(d.u32())),
				To:   graph.NodeID(int32(d.u32())),
				Prob: math.Float64frombits(d.u64()),
			}
		}
		nl := int(d.u32())
		if d.fail || nl > d.rem()/linkDelayWire {
			return h, fmt.Errorf("%w: hello link-delay count %d exceeds payload", ErrBadFrame, nl)
		}
		pl.LinkDelays = make([]fault.LinkDelay, nl)
		for i := range pl.LinkDelays {
			pl.LinkDelays[i] = fault.LinkDelay{
				From:   graph.NodeID(int32(d.u32())),
				To:     graph.NodeID(int32(d.u32())),
				Rounds: int(int32(d.u32())),
			}
		}
		h.Plan = pl
	}
	if err := d.done("hello"); err != nil {
		return h, err
	}
	return h, nil
}

// Welcome is the server's handshake acceptance.
type Welcome struct {
	Version uint16
	Shard   int
	PID     int
}

func encodeWelcome(b []byte, w Welcome) []byte {
	b = putU16(b, w.Version)
	b = putU32(b, uint32(w.Shard))
	b = putU32(b, uint32(w.PID))
	return b
}

func decodeWelcome(p []byte) (Welcome, error) {
	d := &dec{b: p}
	w := Welcome{
		Version: d.u16(),
		Shard:   int(int32(d.u32())),
		PID:     int(int32(d.u32())),
	}
	if err := d.done("welcome"); err != nil {
		return w, err
	}
	return w, nil
}

func encodeError(b []byte, code uint16, msg string) []byte {
	b = putU16(b, code)
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	b = putU16(b, uint16(len(msg)))
	return append(b, msg...)
}

func decodeError(p []byte) (*RemoteError, error) {
	d := &dec{b: p}
	code := d.u16()
	n := int(d.u16())
	if d.fail || n > d.rem() {
		return nil, fmt.Errorf("%w: error message length %d exceeds payload", ErrBadFrame, n)
	}
	msg := string(d.b[d.off : d.off+n])
	d.off += n
	if err := d.done("error"); err != nil {
		return nil, err
	}
	return &RemoteError{Code: code, Msg: msg}, nil
}

func encodeMsgs(b []byte, msgs []congest.Message) []byte {
	for i := range msgs {
		m := &msgs[i]
		b = putU32(b, uint32(m.From))
		b = putU32(b, uint32(m.To))
		b = putU16(b, m.Kind)
		b = putU16(b, uint16(m.Words()))
		for _, w := range m.W {
			b = putU64(b, w)
		}
	}
	return b
}

func (d *dec) msgs(count int, into []congest.Message) []congest.Message {
	for i := 0; i < count; i++ {
		from := graph.NodeID(int32(d.u32()))
		to := graph.NodeID(int32(d.u32()))
		kind := d.u16()
		words := int(d.u16())
		var w [congest.PayloadWords]uint64
		for j := range w {
			w[j] = d.u64()
		}
		into = append(into, congest.MakeMessage(from, to, kind, words, w))
	}
	return into
}

func encodePush(b []byte, round int, msgs []congest.Message) []byte {
	b = putU32(b, uint32(round))
	b = putU32(b, uint32(len(msgs)))
	return encodeMsgs(b, msgs)
}

func decodePush(p []byte, into []congest.Message) (int, []congest.Message, error) {
	d := &dec{b: p}
	round := int(int32(d.u32()))
	count := int(d.u32())
	if d.fail || count > d.rem()/msgWire {
		return 0, into, fmt.Errorf("%w: push count %d exceeds payload", ErrBadFrame, count)
	}
	into = d.msgs(count, into)
	if err := d.done("push"); err != nil {
		return 0, into, err
	}
	return round, into, nil
}

func encodePushAck(b []byte, active int) []byte { return putU32(b, uint32(active)) }

func decodePushAck(p []byte) (int, error) {
	d := &dec{b: p}
	active := int(int32(d.u32()))
	if err := d.done("push-ack"); err != nil {
		return 0, err
	}
	return active, nil
}

func encodeDeliver(b []byte, round int) []byte { return putU32(b, uint32(round)) }

func decodeDeliver(p []byte) (int, error) {
	d := &dec{b: p}
	round := int(int32(d.u32()))
	if err := d.done("deliver"); err != nil {
		return 0, err
	}
	return round, nil
}

func encodeBuffer(b []byte, msgs []congest.Message) []byte {
	b = putU32(b, uint32(len(msgs)))
	return encodeMsgs(b, msgs)
}

func decodeBuffer(p []byte, into []congest.Message) ([]congest.Message, error) {
	d := &dec{b: p}
	count := int(d.u32())
	if d.fail || count > d.rem()/msgWire {
		return into, fmt.Errorf("%w: buffer count %d exceeds payload", ErrBadFrame, count)
	}
	into = d.msgs(count, into)
	if err := d.done("buffer"); err != nil {
		return into, err
	}
	return into, nil
}

func encodeRunResult(b []byte, r congest.RemoteResult) []byte {
	b = putU32(b, uint32(r.Res.Rounds))
	b = putU64(b, uint64(r.Res.Messages))
	b = putU64(b, uint64(r.Res.Words))
	b = putU32(b, uint32(r.Res.MaxQueue))
	b = putU64(b, uint64(r.Res.Faults.Dropped))
	b = putU64(b, uint64(r.Res.Faults.LinkDropped))
	b = putU64(b, uint64(r.Res.Faults.Delayed))
	b = putU32(b, uint32(r.Res.Faults.Crashed))
	if r.Loss.Valid {
		b = putU8(b, 1)
	} else {
		b = putU8(b, 0)
	}
	if r.Loss.Link {
		b = putU8(b, 1)
	} else {
		b = putU8(b, 0)
	}
	b = putU32(b, uint32(r.Loss.Round))
	b = putU32(b, uint32(r.Loss.Edge))
	b = putU32(b, uint32(r.Loss.From))
	b = putU32(b, uint32(r.Loss.To))
	return b
}

func decodeRunResult(p []byte) (congest.RemoteResult, error) {
	d := &dec{b: p}
	var r congest.RemoteResult
	r.Res.Rounds = int(int32(d.u32()))
	r.Res.Messages = int64(d.u64())
	r.Res.Words = int64(d.u64())
	r.Res.MaxQueue = int(int32(d.u32()))
	r.Res.Faults.Dropped = int64(d.u64())
	r.Res.Faults.LinkDropped = int64(d.u64())
	r.Res.Faults.Delayed = int64(d.u64())
	r.Res.Faults.Crashed = int(int32(d.u32()))
	r.Loss.Valid = d.u8() != 0
	r.Loss.Link = d.u8() != 0
	r.Loss.Round = int32(d.u32())
	r.Loss.Edge = int32(d.u32())
	r.Loss.From = graph.NodeID(int32(d.u32()))
	r.Loss.To = graph.NodeID(int32(d.u32()))
	if err := d.done("run-result"); err != nil {
		return r, err
	}
	return r, nil
}
