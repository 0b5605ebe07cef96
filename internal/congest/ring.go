package congest

// ring is a growable FIFO queue of messages over a power-of-two backing
// slab. The old engine appended to a []Message and nil-ed it after
// delivery, re-allocating the moment the edge saw traffic again; a ring
// keeps its high-water capacity across rounds and runs, so steady-state
// enqueue/dequeue never allocates.
type ring struct {
	buf  []Message // len(buf) is 0 or a power of two
	head int32
	size int32
}

// next extends the queue by one slot and returns it for the caller to
// fill in place.
func (r *ring) next() *Message {
	if int(r.size) == len(r.buf) {
		r.grow()
	}
	m := &r.buf[(int(r.head)+int(r.size))&(len(r.buf)-1)]
	r.size++
	return m
}

// at returns the i-th queued message from the front (0 <= i < size).
func (r *ring) at(i int32) *Message {
	return &r.buf[(int(r.head)+int(i))&(len(r.buf)-1)]
}

// popN discards the k front messages (k <= size).
func (r *ring) popN(k int32) {
	r.size -= k
	if r.size == 0 {
		r.head = 0
		return
	}
	r.head = int32((int(r.head) + int(k)) & (len(r.buf) - 1))
}

// clear empties the queue, keeping the slab.
func (r *ring) clear() {
	r.head, r.size = 0, 0
}

func (r *ring) grow() {
	newCap := len(r.buf) * 2
	if newCap < 4 {
		newCap = 4
	}
	nb := make([]Message, newCap)
	for i := int32(0); i < r.size; i++ {
		nb[i] = *r.at(i)
	}
	r.buf = nb
	r.head = 0
}
