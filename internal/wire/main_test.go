package wire

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain fences the package's goroutines: a server runs one goroutine
// per session plus its accept loop, and every test must leave none of
// them behind — a session its client abandoned mid-round, with a push and
// a delivery still outstanding, included. After a green run the goroutine
// count must fall back to its pre-run value within leakGrace; otherwise
// the binary prints every goroutine's stack and exits non-zero.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settleGoroutines(before, leakGrace); n > before {
			fmt.Fprintf(os.Stderr, "wire: %d goroutines still running %v after the tests, %d before them:\n", n, leakGrace, before)
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
