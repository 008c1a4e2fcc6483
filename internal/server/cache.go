package server

import (
	"container/list"
	"sync"

	"cqp/internal/obs"
)

// Cache is the daemon's LRU result-and-estimate cache. Keys are request
// keys (cqp.Request.Key), which include the profile ID@version and the
// statistics generation, so a profile mutation or a Personalizer.Refresh
// changes the key and logically invalidates every dependent entry;
// InvalidateProfile and Purge reclaim the dead entries eagerly. Values are
// immutable response objects.
type Cache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recent
	items     map[string]*list.Element
	byProfile map[string]map[string]struct{} // profile id -> live keys

	// The stale index is the degradation ladder's first rung: a second
	// bounded LRU keyed WITHOUT profile version or statistics generation, so
	// the last good answer for (mode, query, profile, options) stays
	// reachable after the exact key has rotated away. It deliberately
	// survives InvalidateProfile and Purge — serving from it is explicitly
	// marked stale in the response, and a deleted profile 404s before any
	// lookup.
	staleLL    *list.List
	staleItems map[string]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
	staleHits *obs.Counter
}

type cacheEntry struct {
	key       string
	profileID string
	val       any
}

// NewCache builds an LRU cache of at most max entries (max < 1 selects 1),
// recording server_cache_hits/misses/evictions and server_cache_entries
// into reg (nil disables recording).
func NewCache(max int, reg *obs.Registry) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:        max,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		byProfile:  make(map[string]map[string]struct{}),
		staleLL:    list.New(),
		staleItems: make(map[string]*list.Element),
		hits:       reg.Counter("server_cache_hits"),
		misses:     reg.Counter("server_cache_misses"),
		evictions:  reg.Counter("server_cache_evictions_total"),
		entries:    reg.Gauge("server_cache_entries"),
		staleHits:  reg.Counter("server_cache_stale_hits"),
	}
}

// Get returns the cached value and whether it was present, refreshing the
// entry's recency and counting a hit or miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, attributed to profileID for eager
// invalidation, evicting the least-recently-used entry beyond capacity.
func (c *Cache) Put(key, profileID string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, profileID: profileID, val: val})
	c.items[key] = el
	if profileID != "" {
		keys := c.byProfile[profileID]
		if keys == nil {
			keys = make(map[string]struct{})
			c.byProfile[profileID] = keys
		}
		keys[key] = struct{}{}
	}
	for c.ll.Len() > c.max {
		c.removeLocked(c.ll.Back())
		c.evictions.Inc()
	}
	c.entries.Set(int64(c.ll.Len()))
}

// removeLocked unlinks one element; caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	if e.profileID != "" {
		if keys := c.byProfile[e.profileID]; keys != nil {
			delete(keys, e.key)
			if len(keys) == 0 {
				delete(c.byProfile, e.profileID)
			}
		}
	}
}

// PutStale records val as the last good answer under a version-free key
// (see the stale index comment on Cache). Bounded by the same capacity as
// the exact cache, evicting least-recently-served entries.
func (c *Cache) PutStale(staleKey string, val any) {
	if staleKey == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.staleItems[staleKey]; ok {
		c.staleLL.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	el := c.staleLL.PushFront(&cacheEntry{key: staleKey, val: val})
	c.staleItems[staleKey] = el
	for c.staleLL.Len() > c.max {
		back := c.staleLL.Back()
		delete(c.staleItems, back.Value.(*cacheEntry).key)
		c.staleLL.Remove(back)
	}
}

// GetStale returns the last good answer recorded under the version-free key.
// Callers must mark any response served from here as degraded.
func (c *Cache) GetStale(staleKey string) (any, bool) {
	if staleKey == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.staleItems[staleKey]
	if !ok {
		return nil, false
	}
	c.staleLL.MoveToFront(el)
	c.staleHits.Inc()
	return el.Value.(*cacheEntry).val, true
}

// InvalidateProfile drops every entry attributed to the profile ID,
// returning how many were removed. Version-in-key already keeps stale
// entries unreachable; this reclaims their memory on profile PUT/DELETE.
func (c *Cache) InvalidateProfile(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byProfile[id]
	n := len(keys)
	for key := range keys {
		c.removeLocked(c.items[key])
	}
	c.entries.Set(int64(c.ll.Len()))
	return n
}

// Purge drops everything — the Refresh hook.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.byProfile = make(map[string]map[string]struct{})
	c.entries.Set(0)
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
