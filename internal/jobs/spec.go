package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"lowutil"
)

// Kinds of work a job can carry. Each kind maps onto one synchronous
// /v2/* analysis: the job queue is the asynchronous shell around the same
// execution paths.
const (
	KindCompile = "compile"
	KindRun     = "run"
	KindProfile = "profile"
	KindReport  = "report"
	KindSlice   = "slice"
	KindAudit   = "audit"
)

// Spec is one unit of batch work: a program plus the configuration of the
// analysis to run over it. The options are the facade's own structs, so
// the job wire, the synchronous wire and the facade share one vocabulary;
// the zero value of every option means the facade default.
type Spec struct {
	Kind       string `json:"kind"`
	Source     string `json:"source"`
	MainClass  string `json:"main_class,omitempty"`
	MainMethod string `json:"main_method,omitempty"`

	// Profiling configuration (kinds profile and report).
	lowutil.ProfileOptions
	// Static-analysis configuration (kinds slice and audit); Top also
	// bounds the ranked lists of profile and report.
	lowutil.AnalysisOptions
}

// Validate rejects specs the executor could never run.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindCompile, KindRun, KindProfile, KindReport, KindSlice, KindAudit:
	default:
		return fmt.Errorf("jobs: unknown kind %q", s.Kind)
	}
	if s.Source == "" {
		return fmt.Errorf("jobs: %s spec has no source", s.Kind)
	}
	return nil
}

// Hash is the content address of the spec: the SHA-256 of its JSON
// encoding, so every wire-visible field participates and no other does.
// Two specs with equal hashes request identical work and share one entry
// in the result store; callers that want equivalent requests to share it
// too submit specs in one canonical form.
func (s Spec) Hash() string {
	h := sha256.New()
	// Encoding cannot fail: a Spec holds only strings, ints and bools, and
	// hash writes never return an error.
	_ = json.NewEncoder(h).Encode(s)
	return hex.EncodeToString(h.Sum(nil))
}

// Request is one job submission: the spec plus its scheduling envelope.
type Request struct {
	Spec Spec `json:"spec"`
	// Priority orders jobs within the queue — higher runs earlier; equal
	// priorities run in submission order.
	Priority int `json:"priority,omitempty"`
	// Deadline bounds the job's total lifetime from submission, across all
	// retry attempts (0 = no per-job deadline).
	Deadline time.Duration `json:"deadline,omitempty"`
}
