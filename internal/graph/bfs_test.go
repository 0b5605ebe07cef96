package graph

import (
	"testing"
	"testing/quick"

	"distwalk/internal/rng"
)

func TestBFSPathDistances(t *testing.T) {
	g, err := Path(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if res.Dist[v] != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	if res.Eccentricity() != 4 {
		t.Fatalf("eccentricity = %d, want 4", res.Eccentricity())
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[2] != -1 || res.Parent[2] != None {
		t.Fatal("unreachable node not marked")
	}
	if len(res.Order) != 2 {
		t.Fatalf("order has %d nodes, want 2", len(res.Order))
	}
}

func TestBFSErrors(t *testing.T) {
	if _, err := New(0).BFS(0); err == nil {
		t.Fatal("BFS on empty graph succeeded")
	}
	if _, err := New(2).BFS(5); err == nil {
		t.Fatal("BFS from out-of-range source succeeded")
	}
}

func TestPathTo(t *testing.T) {
	g, err := Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	p := res.PathTo(2)
	if len(p) != 3 || p[0] != 0 || p[2] != 2 {
		t.Fatalf("path to 2 = %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path %v uses a non-edge", p)
		}
	}
	if res.PathTo(None) != nil {
		t.Fatal("PathTo(None) should be nil")
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name string
		g    func() *G
		want bool
	}{
		{"empty", func() *G { return New(0) }, false},
		{"singleton", func() *G { return New(1) }, true},
		{"two isolated", func() *G { return New(2) }, false},
		{"path", func() *G { g, _ := Path(4); return g }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g().Connected(); got != tt.want {
				t.Fatalf("Connected = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDiameterKnownFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    func() (*G, error)
		want int
	}{
		{"path10", func() (*G, error) { return Path(10) }, 9},
		{"cycle10", func() (*G, error) { return Cycle(10) }, 5},
		{"cycle9", func() (*G, error) { return Cycle(9) }, 4},
		{"K5", func() (*G, error) { return Complete(5) }, 1},
		{"star8", func() (*G, error) { return Star(8) }, 2},
		{"grid4x5", func() (*G, error) { return Grid(4, 5) }, 7},
		{"torus4x4", func() (*G, error) { return Torus(4, 4) }, 4},
		{"hypercube4", func() (*G, error) { return Hypercube(4) }, 4},
		{"candy(5,7)", func() (*G, error) { return Candy(5, 7) }, 8},
		{"barbell(4,3)", func() (*G, error) { return Barbell(4, 3) }, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := tt.g()
			if err != nil {
				t.Fatal(err)
			}
			d, err := g.Diameter()
			if err != nil {
				t.Fatal(err)
			}
			if d != tt.want {
				t.Fatalf("diameter = %d, want %d", d, tt.want)
			}
		})
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Diameter(); !Disconnected(err) {
		t.Fatalf("want disconnected error, got %v", err)
	}
}

func TestQuickBFSTreeEdgesExist(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		r := rng.New(seed)
		g, err := ConnectedER(n, 0.2, r, 200)
		if err != nil {
			return true // no connected sample at this size; skip
		}
		res, err := g.BFS(NodeID(r.Intn(n)))
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			p := res.Parent[v]
			if p == None {
				continue
			}
			if !g.HasEdge(NodeID(v), p) {
				return false
			}
			if res.Dist[v] != res.Dist[p]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBFSSymmetricDistance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := ConnectedER(25, 0.2, r, 200)
		if err != nil {
			return true
		}
		u := NodeID(r.Intn(25))
		v := NodeID(r.Intn(25))
		fromU, err := g.BFS(u)
		if err != nil {
			return false
		}
		fromV, err := g.BFS(v)
		if err != nil {
			return false
		}
		return fromU.Dist[v] == fromV.Dist[u]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
