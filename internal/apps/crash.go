package apps

import (
	"errors"
	"fmt"

	"hawkset/internal/pmem"
)

// ErrNoCrashValidator is wrapped by RunAndValidate's error for an
// application that does not implement CrashValidator.
var ErrNoCrashValidator = errors.New("does not implement crash validation")

// CrashValidator is implemented by applications that can check their own
// persistent image for structural corruption: the post-crash evidence that a
// persistency-induced race is malign (a consistency checker in the spirit of
// PMRace's second stage, which validates post-failure state — §5.2 excludes
// it from the timing comparison, but it is what turns a race report into a
// demonstrated bug).
//
// ValidateCrash inspects the *persistent* view only (what survives a crash)
// and returns a description of every invariant violation found.
type CrashValidator interface {
	ValidateCrash(p *pmem.Pool) []string
}

// CrashPointValidator is the always-safe subset of crash validation: checks
// that must hold in the persistent image at EVERY device-serialization
// point of a correct execution, not only at operation boundaries. The full
// ValidateCrash may compare the volatile and persistent views (silent data
// loss, resurrected deletes) or assume no operation is mid-shift (duplicate
// or out-of-order entries) — those invariants transiently fail while a
// correctly-persisting operation is in flight, so the crash-injection
// harness applies them only at quiescent crash points and uses
// ValidateCrashPoint everywhere else.
type CrashPointValidator interface {
	ValidateCrashPoint(p *pmem.Pool) []string
}

// RunAndValidate executes a generated workload against the application and
// validates the crash image at the worst possible moment: immediately after
// the last operation, before any shutdown-time flushing. It returns the
// violations (empty when the image is consistent), or the run's error. An
// application that does not implement CrashValidator gets an error wrapping
// ErrNoCrashValidator, before any of the workload runs. The run records no
// trace; cfg.Metrics receives its counters.
func RunAndValidate(e *Entry, opCount int, seed int64, cfg RunConfig) ([]string, error) {
	cfg.NoTrace = true // crash checking needs no trace
	rt := NewRuntime(e, cfg)
	app := e.Factory(rt, cfg.Fixed)
	v, ok := app.(CrashValidator)
	if !ok {
		return nil, fmt.Errorf("apps: %s %w", e.Name, ErrNoCrashValidator)
	}
	if err := RunOn(rt, app, e.Workload(opCount, seed)); err != nil {
		return nil, err
	}
	return v.ValidateCrash(rt.Pool), nil
}
