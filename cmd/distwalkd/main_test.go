package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"distwalk/internal/wire"
)

func TestRunFlagValidation(t *testing.T) {
	cases := map[string]struct {
		args []string
		want error
	}{
		"bad shard":       {[]string{"-shard", "-2"}, errUsage},
		"positional args": {[]string{"extra"}, errUsage},
		"unknown flag":    {[]string{"-bogus"}, errUsage},
		"bad listen":      {[]string{"-listen", "256.0.0.1:bad"}, errListen},
		"bad debug addr":  {[]string{"-listen", "127.0.0.1:0", "-debug-addr", "256.0.0.1:bad"}, errListen},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if !errors.Is(err, tc.want) {
				t.Fatalf("run(%v) = %v, want %v", tc.args, err, tc.want)
			}
		})
	}
}

// TestDebugMuxPerServer: each server's debug handlers report that
// server's counters — on /metrics and in the "distwalkd" expvar — not
// those of the first server the process ever ran; pprof rides along.
func TestDebugMuxPerServer(t *testing.T) {
	a, b := wire.NewServer(wire.ServerConfig{}), wire.NewServer(wire.ServerConfig{})
	a.Metrics().Runs.Add(3)
	b.Metrics().Runs.Add(5)
	get := func(srv *wire.Server, path string) string {
		t.Helper()
		rr := httptest.NewRecorder()
		debugMux(srv).ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rr.Code)
		}
		return rr.Body.String()
	}
	for srv, runs := range map[*wire.Server]int64{a: 3, b: 5} {
		if want := fmt.Sprintf("distwalkd_runs_total %d\n", runs); !strings.Contains(get(srv, "/metrics"), want) {
			t.Errorf("/metrics lacks %q", want)
		}
		var vars struct{ Distwalkd map[string]int64 }
		if err := json.Unmarshal([]byte(get(srv, "/debug/vars")), &vars); err != nil {
			t.Fatalf("/debug/vars: %v", err)
		}
		if vars.Distwalkd["runs"] != runs || len(vars.Distwalkd) != 9 {
			t.Errorf("/debug/vars distwalkd = %v, want runs %d among 9 counters", vars.Distwalkd, runs)
		}
		if !strings.Contains(get(srv, "/debug/pprof/"), "goroutine") {
			t.Error("/debug/pprof/ does not list the goroutine profile")
		}
	}
}
