package cluster

import (
	"fmt"
	"testing"
)

func ringNodes(names ...string) []Node {
	out := make([]Node, len(names))
	for i, n := range names {
		out[i] = Node{Name: n, URL: "http://" + n + ":8080"}
	}
	return out
}

// Two processes building a ring from the same membership must agree on
// every placement — input order, process, and call site must not
// matter. This is the invariant shard routing rests on.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(ringNodes("alpha", "beta", "gamma"))
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	b, err := NewRing(ringNodes("gamma", "alpha", "beta"))
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	if a.Version() != b.Version() {
		t.Fatalf("versions differ across input orders: %s vs %s", a.Version(), b.Version())
	}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("session-%d", i)
		oa, _ := a.Owner(id)
		ob, _ := b.Owner(id)
		if oa != ob {
			t.Fatalf("Owner(%q) differs: %v vs %v", id, oa, ob)
		}
		wa := a.Owners(id, 2)
		wb := b.Owners(id, 2)
		if fmt.Sprint(wa) != fmt.Sprint(wb) {
			t.Fatalf("Owners(%q) differ: %v vs %v", id, wa, wb)
		}
	}
}

func TestRingOwnersDistinctAndBounded(t *testing.T) {
	r, err := NewRing(ringNodes("a", "b", "c"))
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("s%d", i)
		owners := r.Owners(id, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q, 2) = %v", id, owners)
		}
		if owners[0].Name == owners[1].Name {
			t.Fatalf("Owners(%q) not distinct: %v", id, owners)
		}
		primary, ok := r.Owner(id)
		if !ok || primary != owners[0] {
			t.Fatalf("Owner(%q) = %v, want primary %v", id, primary, owners[0])
		}
		// Asking for more replicas than nodes clamps.
		if got := r.Owners(id, 10); len(got) != 3 {
			t.Fatalf("Owners(%q, 10) = %d nodes, want 3", id, len(got))
		}
	}
}

// Virtual nodes must spread load: across 9000 IDs on 3 nodes, no node
// may fall below half or rise above double its fair share. Loose
// bounds — this guards against a broken hash, not imperfect balance.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(ringNodes("a", "b", "c"))
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	counts := map[string]int{}
	const n = 9000
	for i := 0; i < n; i++ {
		o, _ := r.Owner(fmt.Sprintf("session-%d", i))
		counts[o.Name]++
	}
	for name, got := range counts {
		if got < n/6 || got > 2*n/3 {
			t.Fatalf("node %s owns %d of %d sessions (counts %v)", name, got, n, counts)
		}
	}
}

// Removing a node reassigns only the sessions it owned; everyone
// else's owner is untouched. This bounds migration churn on a ring
// change.
func TestRingMinimalDisruption(t *testing.T) {
	full, err := NewRing(ringNodes("a", "b", "c"))
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	smaller, err := NewRing(ringNodes("a", "b"))
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	moved, kept := 0, 0
	for i := 0; i < 3000; i++ {
		id := fmt.Sprintf("session-%d", i)
		before, _ := full.Owner(id)
		after, _ := smaller.Owner(id)
		if before.Name == "c" {
			moved++
			continue
		}
		kept++
		if after.Name != before.Name {
			t.Fatalf("Owner(%q) moved %s → %s though %s is still a member", id, before.Name, after.Name, before.Name)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split: moved=%d kept=%d", moved, kept)
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing([]Node{{Name: ""}}); err == nil {
		t.Fatal("empty node name accepted")
	}
	if _, err := NewRing(ringNodes("dup", "dup")); err == nil {
		t.Fatal("duplicate node name accepted")
	}
	empty, err := NewRing(nil)
	if err != nil {
		t.Fatalf("empty ring rejected: %v", err)
	}
	if _, ok := empty.Owner("x"); ok {
		t.Fatal("empty ring claims an owner")
	}
}
