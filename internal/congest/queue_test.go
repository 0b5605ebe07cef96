package congest

import (
	"testing"

	"distwalk/internal/graph"
	"distwalk/internal/rng"
)

// modelQueues is the number of queues the differential model drives.
const modelQueues = 64

// queueModel drives one slotPool and a plain [][]Message reference with
// the same operations and compares them after every one: FIFO order,
// size, head content, and the slab never longer than the largest number
// of messages queued at once since the last reset.
type queueModel struct {
	t     *testing.T
	pool  slotPool
	qs    [modelQueues]queue
	ref   [modelQueues][]Message
	live  int
	peak  int
	stamp uint64
}

func newQueueModel(t *testing.T) *queueModel {
	return &queueModel{t: t, pool: slotPool{free: noSlot}}
}

func (m *queueModel) push(i int) {
	m.stamp++
	msg := Message{From: graph.NodeID(i), To: graph.NodeID(m.stamp), Kind: 7, words: 1, W: [PayloadWords]uint64{m.stamp}}
	*m.pool.push(&m.qs[i]) = msg
	m.ref[i] = append(m.ref[i], msg)
	if m.live++; m.live > m.peak {
		m.peak = m.live
	}
	m.check(i)
}

// pop removes up to k messages from queue i; like drain it never pops an
// empty queue.
func (m *queueModel) pop(i, k int) {
	for ; k > 0 && m.qs[i].size > 0; k-- {
		if got, want := *m.pool.pop(&m.qs[i]), m.ref[i][0]; got != want {
			m.t.Fatalf("queue %d popped %+v, reference %+v", i, got, want)
		}
		m.ref[i] = m.ref[i][1:]
		m.live--
	}
	m.check(i)
}

// reset is edgeHalf.reset: zero the headers still in use, truncate the slab.
func (m *queueModel) reset() {
	for i := range m.qs {
		if m.qs[i].size > 0 {
			m.qs[i] = queue{}
		}
		m.ref[i] = m.ref[i][:0]
	}
	m.pool.reset()
	m.live, m.peak = 0, 0
	if len(m.pool.msgs) != 0 || len(m.pool.next) != 0 || m.pool.free != noSlot {
		m.t.Fatalf("reset left %d/%d slots, free %d", len(m.pool.msgs), len(m.pool.next), m.pool.free)
	}
}

func (m *queueModel) check(i int) {
	q, ref := m.qs[i], m.ref[i]
	if int(q.size) != len(ref) {
		m.t.Fatalf("queue %d size %d, reference %d", i, q.size, len(ref))
	}
	s := q.head
	for j, want := range ref {
		if m.pool.msgs[s] != want {
			m.t.Fatalf("queue %d position %d holds %+v, reference %+v", i, j, m.pool.msgs[s], want)
		}
		if j == len(ref)-1 && s != q.tail {
			m.t.Fatalf("queue %d chain ends at slot %d, tail is %d", i, s, q.tail)
		}
		s = m.pool.next[s]
	}
	if len(m.pool.msgs) > m.peak || len(m.pool.next) != len(m.pool.msgs) {
		m.t.Fatalf("slab holds %d messages / %d links for a peak of %d queued", len(m.pool.msgs), len(m.pool.next), m.peak)
	}
}

// drainAll empties every queue through pop, so the whole FIFO order of
// whatever is still queued is compared, and the slab must then be all free.
func (m *queueModel) drainAll() {
	for i := range m.qs {
		m.pop(i, len(m.ref[i]))
	}
	free := 0
	for s := m.pool.free; s != noSlot; s = m.pool.next[s] {
		free++
	}
	if free != len(m.pool.msgs) {
		m.t.Fatalf("%d of %d slots on the free stack after draining everything", free, len(m.pool.msgs))
	}
}

// TestSlotPoolMatchesReference is a seeded differential of the intrusive
// chains against plain slices under random push / pop-k / reset sequences.
func TestSlotPoolMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		m := newQueueModel(t)
		r := rng.New(seed)
		for op := 0; op < 20000; op++ {
			i := r.Intn(modelQueues)
			if r.Intn(4) == 0 {
				i = r.Intn(4) // a few hot queues, so chains get long
			}
			switch x := r.Intn(1000); {
			case x < 520:
				m.push(i)
			case x < 998:
				m.pop(i, 1+r.Intn(4))
			default:
				m.reset()
			}
		}
		m.drainAll()
	}
}

// FuzzQueueOps runs the same model from a byte stream: two bytes per
// operation, the first selecting it (push twice as likely as pop; pop
// takes its count from the byte's upper bits; 0xff resets), the second
// the queue.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{2, 0, 6, 9, 0xff, 0, 2, 0})                    // pops of empty queues, before and after a reset
	f.Add([]byte{0, 0, 2, 0, 0, 1, 2, 1, 0, 2, 2, 2})           // one slot reused by three queues in turn
	f.Add(append(growDuringChain(), 14, 0, 14, 0, 14, 1, 2, 1)) // the slab reallocates under two live chains
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newQueueModel(t)
		for ; len(data) >= 2; data = data[2:] {
			op, i := data[0], int(data[1])%modelQueues
			switch {
			case op == 0xff:
				m.reset()
			case op%4 < 2:
				m.push(i)
			default:
				m.pop(i, 1+int(op>>2)%4)
			}
		}
		m.drainAll()
	})
}

// growDuringChain interleaves 40 pushes on queues 0 and 1, with a pop
// now and then so the free stack is in play while append moves the slab.
func growDuringChain() []byte {
	var ops []byte
	for j := 0; j < 40; j++ {
		ops = append(ops, 0, byte(j%2))
		if j%7 == 6 {
			ops = append(ops, 2, 0)
		}
	}
	return ops
}
