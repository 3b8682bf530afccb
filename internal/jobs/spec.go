package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"
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
// analysis to run over it. The zero value of every optional field means
// the facade default, exactly as in the synchronous endpoints.
type Spec struct {
	Kind       string `json:"kind"`
	Source     string `json:"source"`
	MainClass  string `json:"main_class,omitempty"`
	MainMethod string `json:"main_method,omitempty"`

	// Profiling configuration (kinds profile and report).
	Slots        int  `json:"slots,omitempty"`
	TreeHeight   int  `json:"tree_height,omitempty"`
	Traditional  bool `json:"traditional,omitempty"`
	TrackControl bool `json:"track_control,omitempty"`
	Prune        bool `json:"prune,omitempty"`

	// Static-analysis configuration (kinds slice and audit).
	Mode   string `json:"mode,omitempty"`
	ObjCtx bool   `json:"objctx,omitempty"`

	// Top bounds ranked lists in rendered results (0 = the default).
	Top int `json:"top,omitempty"`
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

// Hash is the canonical content address of the spec. Two specs with equal
// hashes request identical work, so they share one entry in the result
// store. Every semantically meaningful field participates; encoding is
// length-prefix-free via NUL separators (no field may contain NUL — MJ
// source never does).
func (s Spec) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%d\x00%d\x00%t\x00%t\x00%t\x00%s\x00%t\x00%d",
		s.Kind, s.Source, s.MainClass, s.MainMethod,
		s.Slots, s.TreeHeight, s.Traditional, s.TrackControl, s.Prune,
		s.Mode, s.ObjCtx, s.Top)
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
