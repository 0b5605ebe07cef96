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
		{"WithPartialResults", distwalk.WithPartialResults(), false},
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
