package distwalk

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain fences the package's goroutines: a Service runs one goroutine
// per pooled worker, a sharded network its shard workers, and the tests
// run engine servers in process and distwalkd daemons as child
// processes; every test must leave none of them behind, and cluster
// sessions, which close and redial as the published graph changes, none
// of their servers' session goroutines either. After a green run the
// goroutine count must fall back to its pre-run value within leakGrace;
// otherwise the binary prints every goroutine's stack and exits non-zero.
func TestMain(m *testing.M) {
	// A -fuzz run's coordinator watches for interrupts through os/signal,
	// whose watcher goroutine, once started, runs for the life of the
	// process; start it here so that it belongs to the baseline.
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settleGoroutines(before, leakGrace); n > before {
			fmt.Fprintf(os.Stderr, "distwalk: %d goroutines still running %v after the tests, %d before them:\n", n, leakGrace, before)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			code = 1
		}
	}
	os.Exit(code)
}

// leakGrace is how long goroutines a test released may take to exit.
const leakGrace = 5 * time.Second

// settleGoroutines polls until at most want goroutines run or grace
// expires, and returns the last count.
func settleGoroutines(want int, grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
