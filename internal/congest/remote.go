package congest

import (
	"fmt"

	"distwalk/internal/fault"
	"distwalk/internal/graph"
)

// Cluster-mode client: the network's edge halves run as ShardEngines in
// other processes (cmd/distwalkd), reached through the RemoteShard
// transport below. The node half — Init/Step, the seed a protocol's draws
// key on, the awake list — runs here as the network's single shard; its
// own edge half stays idle. Each round the client ships its sends to the
// engine owning the sender, asks every engine to deliver (in the same
// flush when the fault plan loses no message), and merges the returned
// buffers in ascending engine order — the kernel's mergeIn, so inboxes,
// counters and fault charging stay bit-identical to the in-process
// drivers (see doc.go).

// RemoteShard is one remote shard engine as seen by the client: a
// request/reply transport over the engine's RunBegin/Push/Deliver/RunEnd
// state machine. Replies come back in request order, and at most two
// requests are outstanding: a round may send SendPushes and SendDeliver
// before it reads the PushAck and then the Buffer. The Send/Read split
// lets the round loop write to every engine before reading any reply, so
// the engines of a round work concurrently while the client stays
// single-threaded. LoopbackShard is the in-process reference
// implementation; internal/wire provides the TCP one.
type RemoteShard interface {
	// RunBegin resets the engine for a fresh run. Implementations may
	// buffer the request; it must be delivered before (or with) the next
	// SendPushes.
	RunBegin() error
	// SendPushes ships the round's sends from this engine's node range
	// (possibly none — the engine still needs the round's push barrier).
	SendPushes(round int, msgs []Message) error
	// ReadPushAck completes SendPushes, returning the engine's active
	// edge count — its contribution to the quiescence check.
	ReadPushAck() (active int, err error)
	// SendDeliver asks the engine to deliver the given round.
	SendDeliver(round int) error
	// ReadBuffer completes SendDeliver, appending the delivered messages
	// (ascending edge order) to buf and returning the extended slice.
	ReadBuffer(buf []Message) ([]Message, error)
	// FinishRun ends the run, returning the engine's counters and
	// first-loss record.
	FinishRun() (RemoteResult, error)
}

// RemoteResult is a shard engine's contribution to a run's Result: its
// delivery counters and its first-loss record.
type RemoteResult struct {
	Res  Result
	Loss LossRecord
}

// ConnectRemote switches the network to cluster execution over the given
// engine group: engine i owns the transport for nodes
// [bounds[i], bounds[i+1]) (PlanShards produces matching bounds). The
// network's own transport stays unused; any in-process shard layout is
// torn down. Cluster mode supports the uniform edge capacity and fault
// plans (shipped to the engines at dial time by the caller); the
// per-edge capacity table is a client-local construct the engines never
// see, so a network using it refuses to connect. The engines must carry
// the network's own fault plan: on a network whose plan loses no message
// the round loop decides quiescence from its own count of messages in
// flight, and a run whose engines drop messages anyway fails with
// ErrRemoteShard. Pass an empty group to restore in-process execution.
func (n *Network) ConnectRemote(group []RemoteShard, bounds []int32) error {
	if len(group) == 0 {
		n.remote = nil
		n.remoteOf = nil
		n.pushBuf = nil
		return nil
	}
	if !validBounds(bounds, n.g.N()) || len(bounds) != len(group)+1 {
		return fmt.Errorf("%w: %d engines against bounds %v over [0,%d]",
			ErrShardPlan, len(group), bounds, n.g.N())
	}
	if n.capOf != nil {
		return fmt.Errorf("%w: per-edge capacities are not supported in cluster mode", ErrShardPlan)
	}
	n.SetShards(1)
	n.remote = group
	n.remoteOf = make([]int32, n.g.N())
	for i := 0; i < len(group); i++ {
		for v := bounds[i]; v < bounds[i+1]; v++ {
			n.remoteOf[v] = int32(i)
		}
	}
	n.pushBuf = make([][]Message, len(group))
	return nil
}

// Remote reports the number of connected remote shard engines (0 =
// in-process execution).
func (n *Network) Remote() int { return len(n.remote) }

// remoteFail wraps a transport failure of engine i; errors.Is matches
// both ErrRemoteShard and the transport's own typed cause.
func remoteFail(i int, err error) error {
	return fmt.Errorf("%w: shard %d: %w", ErrRemoteShard, i, err)
}

// exchange writes every engine its part of a round — the sends the
// step of round r produced (push) and the request to deliver round r+1
// (deliver) — before reading any reply, so the engines work concurrently.
// It then reads the replies in ascending engine order, each engine's ack
// before its buffer (the order the engine answers in), and merges the
// buffers into the client's node half. It returns the summed active edge
// count — the cluster analogue of summing sh.active.count over the
// in-process shards — and the number of messages delivered.
func (n *Network) exchange(sh *shard, r int, push, deliver bool) (active, delivered int, err error) {
	for i, e := range n.remote {
		if push {
			if err := e.SendPushes(r, n.pushBuf[i]); err != nil {
				return 0, 0, remoteFail(i, err)
			}
		}
		if deliver {
			if err := e.SendDeliver(r + 1); err != nil {
				return 0, 0, remoteFail(i, err)
			}
		}
	}
	for i, e := range n.remote {
		if push {
			a, err := e.ReadPushAck()
			if err != nil {
				return 0, 0, remoteFail(i, err)
			}
			active += a
			n.pushBuf[i] = n.pushBuf[i][:0]
		}
		if deliver {
			buf, err := e.ReadBuffer(n.recvBuf[:0])
			if err != nil {
				return 0, 0, remoteFail(i, err)
			}
			sh.mergeIn(buf)
			delivered += len(buf)
			n.recvBuf = buf[:0]
		}
	}
	return active, delivered, nil
}

// finishRemote collects every engine's counters and first-loss record.
func (n *Network) finishRemote() error {
	var firstErr error
	held := n.loss.Valid
	for i, r := range n.remote {
		rr, err := r.FinishRun()
		if err != nil {
			if firstErr == nil {
				firstErr = remoteFail(i, err)
			}
			continue
		}
		n.collect(rr.Res, rr.Loss, held)
	}
	return firstErr
}

// runRemote is the cluster driver: the kernel's round with the transfer
// buffers crossing the RemoteShard transport. On a network whose fault
// plan loses no message, the client counts the messages in flight
// (pushed, not yet delivered): that count is zero exactly when the
// engines' summed active count is, so the verdict runs before the flush
// and a continuing round costs one exchange per engine — the round's
// pushes and the next round's delivery written together. A plan that can
// drop messages keeps the two-exchange round, since only the engines
// know what they dropped: push, then the verdict on the acks' active
// count, then deliver. A transport failure abandons the session; any
// other end tells every engine to finish the run.
func (n *Network) runRemote(p Proto, halter Halter) error {
	for i := range n.pushBuf {
		n.pushBuf[i] = n.pushBuf[i][:0]
	}
	for i, r := range n.remote {
		if err := r.RunBegin(); err != nil {
			return remoteFail(i, err)
		}
	}
	sh := n.shards[0]
	sh.init(p)
	lossless := n.flt.lossless()
	inFlight := 0
	for {
		r := n.round
		queued := 0
		if lossless {
			for _, b := range n.pushBuf {
				inFlight += len(b)
			}
			queued = inFlight
		} else {
			active, _, err := n.exchange(sh, r, true, false)
			if err != nil {
				return err
			}
			queued = active
		}
		stop, err := n.verdict(halter, queued)
		if lossless {
			active, delivered, xerr := n.exchange(sh, r, true, !stop)
			if xerr != nil {
				return xerr
			}
			if (active == 0) != (inFlight == 0) {
				stop, err = true, fmt.Errorf("%w: round %d: engines report %d active edges with %d messages in flight "+
					"(do the engines carry the network's fault plan?)", ErrRemoteShard, r, active, inFlight)
			}
			inFlight -= delivered
		} else if !stop {
			if _, _, err := n.exchange(sh, r, false, true); err != nil {
				return err
			}
		}
		if stop {
			if ferr := n.finishRemote(); err == nil {
				err = ferr
			}
			return err
		}
		sh.wake()
		sh.step(p)
	}
}

// LoopbackShard is the in-process reference implementation of
// RemoteShard: a ShardEngine called directly, with the request/reply
// split emulated by one mailbox slot per reply kind. SendPushes runs the
// push and keeps the ack; ReadBuffer runs the delivery SendDeliver asked
// for. A pipelined round (push, deliver, then both reads) therefore sees
// the same ack and buffer an engine answering in request order sends. It
// documents the transport contract, anchors the wire implementation's
// identity tests (cluster execution must be bit-identical with either
// transport), and gives tests a cluster client with no processes or
// sockets involved.
type LoopbackShard struct {
	eng    *ShardEngine
	active int // the pending PushAck
	round  int // the pending Deliver
}

// NewLoopbackGroup builds an in-process engine group over the same plan a
// cluster of s distwalkd processes would serve: PlanShards bounds, one
// ShardEngine per shard, each compiled against g with the given edge
// capacity and fault plan. It returns the group and the bounds to pass
// to ConnectRemote.
func NewLoopbackGroup(g *graph.G, s, edgeCap int, plan *fault.Plan) ([]RemoteShard, []int32, error) {
	bounds := PlanShards(g, s)
	group := make([]RemoteShard, len(bounds)-1)
	for i := range group {
		eng, err := NewShardEngine(g, bounds, i, edgeCap, plan)
		if err != nil {
			return nil, nil, err
		}
		group[i] = &LoopbackShard{eng: eng}
	}
	return group, bounds, nil
}

// RunBegin implements RemoteShard.
func (l *LoopbackShard) RunBegin() error {
	l.eng.RunBegin()
	return nil
}

// SendPushes implements RemoteShard.
func (l *LoopbackShard) SendPushes(round int, msgs []Message) error {
	err := l.eng.Push(round, msgs)
	l.active = l.eng.Active()
	return err
}

// ReadPushAck implements RemoteShard.
func (l *LoopbackShard) ReadPushAck() (int, error) { return l.active, nil }

// SendDeliver implements RemoteShard.
func (l *LoopbackShard) SendDeliver(round int) error {
	l.round = round
	return nil
}

// ReadBuffer implements RemoteShard.
func (l *LoopbackShard) ReadBuffer(buf []Message) ([]Message, error) {
	return append(buf, l.eng.Deliver(l.round)...), nil
}

// FinishRun implements RemoteShard.
func (l *LoopbackShard) FinishRun() (RemoteResult, error) {
	res, loss := l.eng.RunEnd()
	return RemoteResult{Res: res, Loss: loss}, nil
}

var _ RemoteShard = (*LoopbackShard)(nil)
