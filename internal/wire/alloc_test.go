package wire

import (
	"testing"

	"distwalk/internal/congest"
	"distwalk/internal/graph"
)

// TestRoundTripAllocsNothing pins the steady-state cost of one simulated
// round over TCP: a warm push / push-ack / deliver / buffer cycle against
// an in-process Server allocates nothing on either end — no frame header,
// no payload buffer, no message slice. AllocsPerRun counts every
// goroutine's allocations, so the server's session loop is covered too.
func TestRoundTripAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g, err := graph.Torus(16, 16)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	// 256 messages on 256 distinct directed edges: one Deliver drains them
	// all, so every cycle starts from an empty engine.
	var full []congest.Message
	for v := 0; v < 64; v++ {
		for _, h := range g.Neighbors(graph.NodeID(v)) {
			full = append(full, congest.MakeMessage(graph.NodeID(v), h.To, 7, 1, [congest.PayloadWords]uint64{uint64(v)}))
		}
	}
	if len(full) != 256 {
		t.Fatalf("built %d messages, want 256", len(full))
	}
	for name, msgs := range map[string][]congest.Message{"empty": nil, "push256": full} {
		t.Run(name, func(t *testing.T) {
			_, addr := startServer(t, ServerConfig{PinShard: -1})
			c, err := DialEngine(addr, HelloFor(g, 1, 0, 1, 1, nil))
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			if err := c.RunBegin(); err != nil {
				t.Fatalf("run begin: %v", err)
			}
			var buf []congest.Message
			round := 0
			cycle := func() {
				round++
				if err := c.SendPushes(round, msgs); err != nil {
					t.Fatalf("push: %v", err)
				}
				if _, err := c.ReadPushAck(); err != nil {
					t.Fatalf("push-ack: %v", err)
				}
				if err := c.SendDeliver(round); err != nil {
					t.Fatalf("deliver: %v", err)
				}
				if buf, err = c.ReadBuffer(buf[:0]); err != nil {
					t.Fatalf("buffer: %v", err)
				}
				if len(buf) != len(msgs) {
					t.Fatalf("round %d delivered %d messages, want %d", round, len(buf), len(msgs))
				}
			}
			for i := 0; i < 8; i++ { // grow every reused buffer to its steady size
				cycle()
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Fatalf("warm round trip allocates %.2f objects per cycle, want 0", avg)
			}
		})
	}
}
