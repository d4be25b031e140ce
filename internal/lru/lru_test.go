package lru

import (
	"fmt"
	"slices"
	"testing"
)

func keys[V any](c *Cache[V]) []string {
	var out []string
	c.Each(func(k string, _ V) { out = append(out, k) })
	return out
}

// TestEntryCap is the plan-cache shape: entry-capped, zero costs, evicting
// (and counting) the least recently used beyond the cap.
func TestEntryCap(t *testing.T) {
	c := New[int](2, 0)
	c.Add("a", 1, 0)
	c.Add("b", 2, 0)
	if v, ok := c.Get("a"); !ok || v != 1 { // refresh a: b is now least recent
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Add("c", 3, 0)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry b survived over the cap")
	}
	if got := keys(c); !slices.Equal(got, []string{"c", "a"}) {
		t.Fatalf("recency order %v, want [c a]", got)
	}
	if c.Len() != 2 || c.Evicted() != 1 || c.Cost() != 0 {
		t.Fatalf("Len %d Evicted %d Cost %d", c.Len(), c.Evicted(), c.Cost())
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("absent key hit")
	}
}

// TestUncapped: caps <= 0 never evict.
func TestUncapped(t *testing.T) {
	c := New[int](0, -1)
	for i := 0; i < 1000; i++ {
		c.Add(fmt.Sprint(i), i, 1<<40)
	}
	if c.Len() != 1000 || c.Evicted() != 0 {
		t.Fatalf("uncapped cache evicted: Len %d Evicted %d", c.Len(), c.Evicted())
	}
}

// TestOverwriteSameKeyCostDelta is the result-store shape: re-putting a key
// replaces the value, moves the total by the cost difference, refreshes
// recency, and neither grows the cache nor counts an eviction.
func TestOverwriteSameKeyCostDelta(t *testing.T) {
	c := New[string](4, 0)
	c.Add("k", "v1", 2)
	c.Add("other", "x", 1)
	c.Add("k", "longer-v2", 9)
	if v, ok := c.Get("k"); !ok || v != "longer-v2" {
		t.Fatalf("Get(k) = %q, %v", v, ok)
	}
	if c.Len() != 2 || c.Cost() != 10 || c.Evicted() != 0 {
		t.Fatalf("Len %d Cost %d Evicted %d after overwrite", c.Len(), c.Cost(), c.Evicted())
	}
	c.Add("k", "s", 1) // shrinking moves the total down
	if c.Cost() != 2 {
		t.Fatalf("Cost %d after shrinking overwrite, want 2", c.Cost())
	}
	if got := keys(c); got[0] != "k" {
		t.Fatalf("overwrite did not refresh recency: %v", got)
	}
}

// TestCostCapEvictsOldest: beyond the cost cap the least recently used
// entries go first, and the total tracks what is resident.
func TestCostCapEvictsOldest(t *testing.T) {
	c := New[int](0, 10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 4)
	c.Add("c", 3, 4) // 12 > 10: a goes
	if got := keys(c); !slices.Equal(got, []string{"c", "b"}) {
		t.Fatalf("resident %v, want [c b]", got)
	}
	if c.Cost() != 8 || c.Evicted() != 1 {
		t.Fatalf("Cost %d Evicted %d", c.Cost(), c.Evicted())
	}
}

// TestNeverEvictTheSetBeingInserted is the snapshot-cache shape: a set of
// entries that must survive together is Set and then trimmed with its size,
// so it stays resident even when it alone exceeds the cost cap, while
// everything older goes.
func TestNeverEvictTheSetBeingInserted(t *testing.T) {
	c := New[int](0, 10)
	c.Add("old1", 0, 4)
	c.Add("old2", 0, 4)
	for i, k := range []string{"s0", "s1", "s2"} {
		c.Set(k, i, 5)
	}
	c.Trim(3)
	if got := keys(c); !slices.Equal(got, []string{"s2", "s1", "s0"}) {
		t.Fatalf("resident %v, want exactly the inserted set", got)
	}
	if c.Cost() != 15 || c.Evicted() != 2 {
		t.Fatalf("Cost %d Evicted %d", c.Cost(), c.Evicted())
	}
	// A single oversized entry survives its own Add.
	d := New[int](0, 1)
	d.Add("big", 1, 100)
	if d.Len() != 1 || d.Cost() != 100 {
		t.Fatalf("oversized entry evicted itself: Len %d Cost %d", d.Len(), d.Cost())
	}
	d.Add("next", 2, 100)
	if _, ok := d.Get("big"); ok || d.Len() != 1 {
		t.Fatal("the previous oversized entry outlived the next insert")
	}
}

// TestBothCaps: whichever cap is exceeded first evicts.
func TestBothCaps(t *testing.T) {
	c := New[int](3, 10)
	c.Add("a", 0, 1)
	c.Add("b", 0, 1)
	c.Add("c", 0, 1)
	c.Add("d", 0, 1) // entry cap
	if c.Len() != 3 || c.Evicted() != 1 {
		t.Fatalf("entry cap: Len %d Evicted %d", c.Len(), c.Evicted())
	}
	c.Add("e", 0, 9) // cost cap: 3+9 > 10 until only d(1)... e(9) remain
	if got := keys(c); !slices.Equal(got, []string{"e", "d"}) {
		t.Fatalf("cost cap: resident %v, want [e d]", got)
	}
}
