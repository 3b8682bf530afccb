// Package server implements `lowutil serve`: a concurrent HTTP profiling
// service over the lowutil facade. Long-lived sessions hold compiled
// programs in an LRU cache; per-session profile caches memoize completed
// profiling runs keyed by their full configuration, so repeated queries
// skip recompilation and re-profiling. Every handler threads its request
// context into the facade, which polls it in the interpreter main loop and
// in every static-analysis fixpoint.
package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"lowutil"
)

// sessionKey derives the stable session ID for a compile request: the
// hex-encoded SHA-256 of the entry point and source text.
func sessionKey(src, mainClass, mainMethod string) string {
	h := sha256.New()
	h.Write([]byte(mainClass))
	h.Write([]byte{0})
	h.Write([]byte(mainMethod))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// entry latches one memoized run. done closes when val/err are final; mu
// serializes readers of a val that is not safe for concurrent use (the
// facade does not promise a Profile is — its graph caches the frozen
// snapshot lazily, without a lock — and serializing report rendering is
// cheap next to the profiling run itself).
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
	mu   sync.Mutex
}

// use runs fn with exclusive access to the entry's value.
func (e *entry[V]) use(fn func(V) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn(e.val)
}

// profileEntry latches one profiling run; auditEntry one static-audit
// report, which is immutable once rendered.
type (
	profileEntry = entry[*lowutil.Profile]
	auditEntry   = entry[string]
)

// memo maps canonical options to their latched runs; the memo keys are the
// canonical facade options themselves (see canonical), so two requests with
// equal keys share one run. The owning Session's mu guards it.
type memo[K comparable, V any] map[K]*entry[V]

// Session is one compiled program plus its memoized profiling runs and
// static-audit reports.
type Session struct {
	ID      string
	Created time.Time
	Prog    *lowutil.Program

	mu       sync.Mutex
	profiles memo[lowutil.ProfileOptions, *lowutil.Profile]
	audits   memo[lowutil.AnalysisOptions, string]
}

// profile returns the memoized run for key, computing it under ctx on a
// miss (see memoize).
func (s *Session) profile(ctx context.Context, key lowutil.ProfileOptions) (*profileEntry, bool, error) {
	return memoize(ctx, s, &s.profiles, key, func() (*lowutil.Profile, error) {
		return s.Prog.ProfileContext(ctx, set(key))
	})
}

// audit returns the memoized static-audit report for key, computing it
// under ctx on a miss (see memoize).
func (s *Session) audit(ctx context.Context, key lowutil.AnalysisOptions) (*auditEntry, bool, error) {
	return memoize(ctx, s, &s.audits, key, func() (string, error) {
		return s.Prog.StaticAudit(ctx, set(key))
	})
}

// memoize returns the entry for key in s's memo m, computing it with run on
// a miss. The second result reports a cache hit — true whenever another
// request already created the entry, including one still in flight (the
// caller then waits on the latch instead of burning a second run). A run
// aborted by cancellation is evicted so the next request retries; a waiter
// whose own context is still live retries immediately.
func memoize[K comparable, V any](ctx context.Context, s *Session, m *memo[K, V], key K, run func() (V, error)) (*entry[V], bool, error) {
	for {
		s.mu.Lock()
		if *m == nil {
			*m = memo[K, V]{}
		}
		e, hit := (*m)[key]
		if !hit {
			e = &entry[V]{done: make(chan struct{})}
			(*m)[key] = e
		}
		s.mu.Unlock()

		if !hit {
			s.fill(e.done, &e.err, func() {
				if (*m)[key] == e {
					delete(*m, key)
				}
			}, func() (err error) {
				e.val, err = run()
				return err
			})
			return e, false, e.err
		}

		select {
		case <-e.done:
			if e.err != nil && errors.Is(e.err, lowutil.ErrCanceled) && ctx.Err() == nil {
				continue // the computing request was canceled, not this one
			}
			return e, true, e.err
		case <-ctx.Done():
			return nil, true, fmt.Errorf("%w: %w", lowutil.ErrCanceled, ctx.Err())
		}
	}
}

// fill computes a latch entry the caller just created: it stores fn's
// error in *errp and closes done however fn ends. A canceled run is evicted
// (under s.mu) so the next request retries. A panic is recovered into the
// entry's error and evicted too, so it fails this request and its current
// waiters promptly instead of leaving every later request on the key
// waiting on a latch that never closes.
func (s *Session) fill(done chan struct{}, errp *error, evict func(), fn func() error) {
	defer close(done)
	defer func() {
		if r := recover(); r != nil {
			*errp = fmt.Errorf("lowutil: internal error: %v", r)
			s.mu.Lock()
			evict()
			s.mu.Unlock()
		}
	}()
	*errp = fn()
	if *errp != nil && errors.Is(*errp, lowutil.ErrCanceled) {
		s.mu.Lock()
		evict()
		s.mu.Unlock()
	}
}

// cachedProfiles and cachedAudits report how many runs the session holds.
func (s *Session) cachedProfiles() int { return size(s, &s.profiles) }
func (s *Session) cachedAudits() int   { return size(s, &s.audits) }

func size[K comparable, V any](s *Session, m *memo[K, V]) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(*m)
}

// sessionCache is a mutex-guarded LRU of compiled sessions.
type sessionCache struct {
	mu  sync.Mutex
	max int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

func newSessionCache(max int) *sessionCache {
	if max <= 0 {
		max = 64
	}
	return &sessionCache{max: max, m: make(map[string]*list.Element), lru: list.New()}
}

// get returns the session for id, refreshing its LRU position.
func (c *sessionCache) get(id string) (*Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[id]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*Session), true
}

// add inserts sess unless a session with the same ID exists (then the
// existing one wins — the ID is content-addressed, so they are equal).
// It reports whether an insert happened and how many sessions were evicted.
func (c *sessionCache) add(sess *Session) (*Session, bool, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[sess.ID]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*Session), false, 0
	}
	c.m[sess.ID] = c.lru.PushFront(sess)
	evicted := 0
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*Session).ID)
		evicted++
	}
	return sess, true, evicted
}

// len returns the number of live sessions.
func (c *sessionCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
