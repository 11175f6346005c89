// Package repl seeds the holdblock analyzer's shapes: direct blocking
// under a named lock, blocking reached transitively through a helper,
// channel operations under a deferred unlock, a suppressed site, the
// non-blocking select-with-default idiom (clean), and an allowlisted lock (the
// fixture hierarchy doc allows time.Sleep under repl.Replica.mu).
package repl

import (
	"sync"
	"time"
)

type Publisher struct {
	mu sync.Mutex
	ch chan int
}

// SleepUnderLock blocks directly while holding the session-table lock.
func (p *Publisher) SleepUnderLock() {
	p.mu.Lock()
	time.Sleep(time.Millisecond) // want holdblock "blocking call (time.Sleep) while holding repl.Publisher.mu"
	p.mu.Unlock()
}

// SendUnderLock parks on an unbuffered channel with the lock held via
// defer — the unlock runs only after the send completes.
func (p *Publisher) SendUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ch <- 1 // want holdblock "blocking call (chan-send) while holding repl.Publisher.mu"
}

// slowHelper blocks; it takes no lock itself, so only callers that hold
// one are findings.
func slowHelper() {
	time.Sleep(time.Millisecond)
}

// TransitiveUnderLock reaches the sleep through the helper — the
// finding lands on the call edge, with the witness path through
// slowHelper.
func (p *Publisher) TransitiveUnderLock() {
	p.mu.Lock()
	slowHelper() // want holdblock "repl.slowHelper"
	p.mu.Unlock()
}

// NonBlockingSend is the sanctioned delivery idiom: select with a
// default never parks, so holding the lock across it is fine.
func (p *Publisher) NonBlockingSend() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- 1:
	default:
	}
}

// AnnotatedSleep blocks under the lock on purpose and says why: the
// directive silences Run, while RunRaw still reports the finding
// (TestDeliberateBlockingStaysLoud).
func (p *Publisher) AnnotatedSleep() {
	p.mu.Lock()
	//lint:allow holdblock fixture: a deliberate, annotated block that must stay detectable
	time.Sleep(time.Millisecond)
	p.mu.Unlock()
}

// SleepOutsideLock blocks only after the unlock — clean.
func (p *Publisher) SleepOutsideLock() {
	p.mu.Lock()
	p.mu.Unlock()
	time.Sleep(time.Millisecond)
}

type Replica struct {
	mu sync.Mutex
}

// AllowedSleep blocks under repl.Replica.mu, which the fixture
// hierarchy doc's blocking-call allowlist permits for time.Sleep —
// clean, proving the allowlist row is honored.
func (r *Replica) AllowedSleep() {
	r.mu.Lock()
	time.Sleep(time.Millisecond)
	r.mu.Unlock()
}
