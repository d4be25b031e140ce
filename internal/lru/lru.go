// Package lru is the repo's one least-recently-used cache: string keys, an
// entry cap and/or a cost cap, and one Len/Cost/Evicted accounting shape.
// tqsimd's plan cache and worker sweep-prep cache (entry-capped), the result
// store's memory front (entry-capped, cost = body bytes) and the cross-job
// snapshot cache (cost-capped, cost = state bytes) are all instances.
//
// A Cache is not goroutine-safe: every owner already serializes access with
// its own mutex, next to the disk tier or hit/miss counters it guards with
// the same lock.
package lru

import "container/list"

// Cache is a bounded most-recently-used map from string keys to V.
type Cache[V any] struct {
	maxEntries int
	maxCost    int64
	ll         *list.List // front = most recently used
	m          map[string]*list.Element
	cost       int64
	evicted    uint64
}

type entry[V any] struct {
	key  string
	val  V
	cost int64
}

// New returns a cache holding at most maxEntries entries and at most
// maxCost total cost; a cap <= 0 is no cap on that axis.
func New[V any](maxEntries int, maxCost int64) *Cache[V] {
	return &Cache[V]{maxEntries: maxEntries, maxCost: maxCost, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Set inserts key at the front, or overwrites its value and cost in place
// (the total moves by the cost difference), without evicting. Callers
// inserting a set of entries that must survive together Set them all and
// then Trim with the set's size.
func (c *Cache[V]) Set(key string, val V, cost int64) {
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry[V])
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&entry[V]{key: key, val: val, cost: cost})
	c.cost += cost
}

// Trim evicts least-recently-used entries until both caps hold, but never
// any of the keep most recently used ones: an insert must not evict what
// it just inserted, even when that alone exceeds the cost cap.
func (c *Cache[V]) Trim(keep int) {
	for c.ll.Len() > keep &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) || (c.maxCost > 0 && c.cost > c.maxCost)) {
		back := c.ll.Back()
		e := back.Value.(*entry[V])
		c.ll.Remove(back)
		delete(c.m, e.key)
		c.cost -= e.cost
		c.evicted++
	}
}

// Add is Set followed by Trim(1): the single-entry insert.
func (c *Cache[V]) Add(key string, val V, cost int64) {
	c.Set(key, val, cost)
	c.Trim(1)
}

// Each calls fn for every entry, most recently used first, without
// touching recency.
func (c *Cache[V]) Each(fn func(key string, val V)) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[V])
		fn(e.key, e.val)
	}
}

// Len returns the resident entry count.
func (c *Cache[V]) Len() int { return c.ll.Len() }

// Cost returns the resident entries' total cost.
func (c *Cache[V]) Cost() int64 { return c.cost }

// Evicted returns how many entries Trim has evicted over the cache's life.
func (c *Cache[V]) Evicted() uint64 { return c.evicted }
