package distwalk_test

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
	"time"

	"distwalk"
)

// TestOptionTable lists every public option with its scope and holds the
// list against options.go itself, so an option cannot be added or removed
// without a row here. Construction-only options passed to a request
// method must fail with an *OptionScopeError naming exactly that option;
// per-request options must be accepted by NewService and by the request
// methods alike.
func TestOptionTable(t *testing.T) {
	table := []struct {
		name     string
		opt      distwalk.Option
		ctorOnly bool
	}{
		{"WithBatching", distwalk.WithBatching(4, time.Millisecond), true},
		{"WithCluster", distwalk.WithCluster("127.0.0.1:1"), true},
		{"WithFaultPlan", distwalk.WithFaultPlan(&distwalk.FaultPlan{}), true},
		{"WithMaxRounds", distwalk.WithMaxRounds(1 << 20), false},
		{"WithMixingOptions", distwalk.WithMixingOptions(distwalk.MixingOptions{}), false},
		{"WithParams", distwalk.WithParams(distwalk.DefaultParams()), false},
		{"WithRSTOptions", distwalk.WithRSTOptions(distwalk.RSTOptions{}), false},
		{"WithResultCache", distwalk.WithResultCache(1 << 16), true},
		{"WithRetry", distwalk.WithRetry(1), false},
		{"WithShards", distwalk.WithShards(2), true},
		{"WithWorkers", distwalk.WithWorkers(2), true},
	}

	file, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared, listed []string
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
			declared = append(declared, fn.Name.Name)
		}
	}
	for _, row := range table {
		listed = append(listed, row.name)
	}
	sort.Strings(declared)
	if !sort.StringsAreSorted(listed) || strings.Join(listed, " ") != strings.Join(declared, " ") {
		t.Fatalf("the table and options.go disagree:\n table:      %v\n options.go: %v", listed, declared)
	}

	ctx := context.Background()
	g := mustTorus(t, 6, 6)
	svc, err := distwalk.NewService(g, 1, distwalk.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, row := range table {
		t.Run(row.name, func(t *testing.T) {
			_, walkErr := svc.SingleRandomWalk(ctx, 1, 0, 64, row.opt)
			h, submitErr := svc.SubmitWalk(ctx, 2, 0, 64, row.opt)
			if submitErr == nil {
				_, submitErr = h.Result()
			}
			_, rstErr := svc.RandomSpanningTree(ctx, 3, 0, row.opt)
			calls := map[string]error{"SingleRandomWalk": walkErr, "SubmitWalk": submitErr, "RandomSpanningTree": rstErr}
			if !row.ctorOnly {
				for call, err := range calls {
					if err != nil {
						t.Errorf("%s(%s): %v, want the per-request option accepted", call, row.name, err)
					}
				}
				own, err := distwalk.NewService(g, 1, distwalk.WithWorkers(1), row.opt)
				if err != nil {
					t.Fatalf("NewService(%s): %v, want the per-request option accepted as a default", row.name, err)
				}
				own.Close()
				return
			}
			for call, err := range calls {
				var oe *distwalk.OptionScopeError
				if !errors.As(err, &oe) || oe.Option != row.name || !errors.Is(err, distwalk.ErrOptionScope) {
					t.Errorf("%s(%s): err = %v, want an *OptionScopeError naming %s", call, row.name, err, row.name)
				}
			}
		})
	}
}

// FuzzOptions decodes a byte stream into option lists and holds every
// public option to its error contract. data[0] picks the request
// (SingleRandomWalk, ManyRandomWalks or SubmitWalk); then each pair of
// bytes is one option (b0 % 12: an index into fuzzOptions, or 11 to
// switch from the construction list to the per-request list) and its
// value code b1. NewService on Torus(4,4) and the one request must each
// succeed or fail with ErrOptionScope, ErrBadParams, ErrClusterConfig or
// ErrBadFault, never panic, and the service must Close cleanly.
//
// The value codes stay inside what the four errors cover: round budgets
// are ignored or ample, a valid fault plan only delays messages, and a
// cluster engine list is empty or longer than the graph, so it fails
// validation before anything is dialed.
func FuzzOptions(f *testing.F) {
	f.Add([]byte{0})                                         // defaults
	f.Add([]byte{0, 5, 1, 8, 3, 11, 0, 5, 2})                // DNP09 params and retries; bad params per request
	f.Add([]byte{1, 0, 5, 2, 2, 7, 3, 9, 3, 11, 0, 0, 1})    // batching, a delay-only plan, cache, shards; a construction option per request
	f.Add([]byte{2, 0, 9, 10, 3, 11, 0, 6, 7, 4, 5})         // SubmitWalk batched on two workers; RST and mixing tuning per request
	f.Add([]byte{0, 1, 1, 2, 3})                             // an engine list longer than the graph, a bad fault plan
	f.Add([]byte{1, 3, 255, 4, 255, 5, 255, 7, 255, 8, 255}) // the last value code of five options
	g, err := distwalk.Torus(4, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind := data[0] % 3
		var ctor, req []distwalk.Option
		list := &ctor
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			if i := int(data[0] % 12); i < len(fuzzOptions) {
				*list = append(*list, fuzzOptions[i](g, data[1]))
			} else {
				list = &req
			}
		}
		allowed := func(err error) bool {
			return err == nil || errors.Is(err, distwalk.ErrOptionScope) || errors.Is(err, distwalk.ErrBadParams) ||
				errors.Is(err, distwalk.ErrClusterConfig) || errors.Is(err, distwalk.ErrBadFault)
		}
		svc, err := distwalk.NewService(g, 7, ctor...)
		if !allowed(err) {
			t.Fatalf("NewService: %v", err)
		}
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		switch kind {
		case 0:
			_, err = svc.SingleRandomWalk(ctx, 1, 0, 8, req...)
		case 1:
			_, err = svc.ManyRandomWalks(ctx, 1, []distwalk.NodeID{0, 5}, 8, req...)
		default:
			var h *distwalk.WalkHandle
			if h, err = svc.SubmitWalk(ctx, 1, 0, 8, req...); err == nil {
				_, err = h.Result()
			}
		}
		if !allowed(err) {
			t.Fatalf("request: %v", err)
		}
		if err := svc.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// fuzzOptions maps a value code onto each public option, in the order of
// TestOptionTable.
var fuzzOptions = []func(g *distwalk.Graph, b byte) distwalk.Option{
	func(_ *distwalk.Graph, b byte) distwalk.Option {
		return distwalk.WithBatching(int(b%4)-1, time.Duration(int(b/4%3)-1)*time.Millisecond)
	},
	func(g *distwalk.Graph, b byte) distwalk.Option {
		if b%2 == 0 {
			return distwalk.WithCluster()
		}
		addrs := make([]string, g.N()+1+int(b/2%4))
		for i := range addrs {
			addrs[i] = "127.0.0.1:1"
		}
		return distwalk.WithCluster(addrs...)
	},
	func(g *distwalk.Graph, b byte) distwalk.Option {
		return distwalk.WithFaultPlan(fuzzPlans(g)[int(b)%7])
	},
	func(_ *distwalk.Graph, b byte) distwalk.Option {
		return distwalk.WithMaxRounds([]int{-1, 0, 1 << 16, 1 << 30}[b%4])
	},
	func(_ *distwalk.Graph, b byte) distwalk.Option {
		return distwalk.WithMixingOptions(distwalk.MixingOptions{
			Samples: int(b%5) - 1, Eps: float64(b%3) / 10, BucketRatio: float64(b/3%3) / 2, MaxEll: int(b) - 8,
		})
	},
	func(_ *distwalk.Graph, b byte) distwalk.Option {
		return distwalk.WithParams([]distwalk.Params{
			distwalk.DefaultParams(),
			distwalk.DNP09Params(8, 2),
			{},
			{LambdaC: 1},
			{Lambda: -3, Eta: 1},
			{Lambda: 3, Eta: 2, FixedLength: true, UniformCounts: true},
			{Theory: true, Eta: 1},
			{LambdaC: 0.5, Eta: 1, PerCallBFS: true, Metropolis: true},
		}[b%8])
	},
	func(_ *distwalk.Graph, b byte) distwalk.Option {
		return distwalk.WithRSTOptions(distwalk.RSTOptions{
			StartLength: int(b%7) - 2, WalksPerPhase: int(b/7%5) - 1, MaxLength: int(b) - 4, Deliver: b&1 == 1,
		})
	},
	func(_ *distwalk.Graph, b byte) distwalk.Option {
		return distwalk.WithResultCache([]int64{-1, 0, 1, 1 << 16}[b%4])
	},
	func(_ *distwalk.Graph, b byte) distwalk.Option { return distwalk.WithRetry(int(b%4) - 1) },
	func(g *distwalk.Graph, b byte) distwalk.Option {
		return distwalk.WithShards([]int{-1, 0, 1, 2, 3, g.N() + 1}[b%6])
	},
	func(_ *distwalk.Graph, b byte) distwalk.Option { return distwalk.WithWorkers(int(b%4) - 1) },
}

// fuzzPlans are the fault plans FuzzOptions picks from: none, empty, one
// that only delays messages, and four that fail validation.
func fuzzPlans(g *distwalk.Graph) []*distwalk.FaultPlan {
	nb := g.Neighbors(0)[0].To
	return []*distwalk.FaultPlan{
		nil,
		{},
		{LinkDelays: []distwalk.FaultLinkDelay{{From: 0, To: nb, Rounds: 2}}},
		{Crashes: []distwalk.FaultCrash{{Node: distwalk.NodeID(g.N()), Round: 1}}},
		{DropProb: 2},
		{LinkDrops: []distwalk.FaultLinkDrop{{From: 0, To: 0, Prob: 0.5}}},
		{Churn: []distwalk.FaultChurn{{Node: 3, From: 5, To: 2}}},
	}
}
