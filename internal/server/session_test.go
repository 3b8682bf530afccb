package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lowutil"
	"lowutil/internal/jobs"
)

// TestPanickingRunReleasesLatch: a profile or audit run that panics (here
// over a zero-value Program) must fail its request with an error, close its
// latch, and leave no entry behind — so a second request on the same key
// runs afresh and returns promptly instead of waiting out its deadline.
func TestPanickingRunReleasesLatch(t *testing.T) {
	sess := &Session{ID: "zero", Prog: &lowutil.Program{}}
	pkey := canonical(jobs.Spec{Kind: jobs.KindProfile}).ProfileOptions
	akey := canonical(jobs.Spec{Kind: jobs.KindAudit}).AnalysisOptions
	runs := map[string]func(ctx context.Context) (bool, error){
		"profile": func(ctx context.Context) (bool, error) {
			_, hit, err := sess.profile(ctx, pkey)
			return hit, err
		},
		"audit": func(ctx context.Context) (bool, error) {
			_, hit, err := sess.audit(ctx, akey)
			return hit, err
		},
	}
	for name, run := range runs {
		for i := 0; i < 2; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			start := time.Now()
			hit, err := run(ctx)
			cancel()
			if err == nil || errors.Is(err, lowutil.ErrCanceled) || !strings.Contains(err.Error(), "internal error") {
				t.Fatalf("%s request %d: err = %v, want the recovered panic", name, i, err)
			}
			if hit {
				t.Errorf("%s request %d reused the panicked entry, want a fresh run", name, i)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("%s request %d took %v, want a prompt failure", name, i, d)
			}
		}
	}
	if n, m := sess.cachedProfiles(), sess.cachedAudits(); n != 0 || m != 0 {
		t.Errorf("panicked entries left behind: %d profiles, %d audits", n, m)
	}
}

// TestPanicReleasesWaiters: a request already waiting on an entry whose
// run panics gets the error as soon as the latch closes.
func TestPanicReleasesWaiters(t *testing.T) {
	sess := &Session{ID: "zero", Prog: &lowutil.Program{}}
	key := canonical(jobs.Spec{Kind: jobs.KindProfile}).ProfileOptions
	e := &profileEntry{done: make(chan struct{})}
	sess.profiles = map[lowutil.ProfileOptions]*profileEntry{key: e}

	waited := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _, err := sess.profile(ctx, key)
		waited <- err
	}()
	sess.fill(e.done, &e.err, func() { delete(sess.profiles, key) }, func() error { panic("injected") })
	select {
	case err := <-waited:
		if err == nil || errors.Is(err, lowutil.ErrCanceled) {
			t.Fatalf("waiter: err = %v, want the recovered panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the panicking run closed its latch")
	}
}
