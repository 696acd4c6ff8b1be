// Package errfix seeds errcrit violations: error returns of the module's
// own functions and methods discarded as bare statements and blank
// assignments, next to handled, exempt and deliberately annotated call
// sites.
package errfix

import (
	"errors"
	"os"
)

// Engine mimics the simnet engine's error-returning run API.
type Engine struct{}

// Run pretends to advance the engine.
func (e *Engine) Run() error { return errors.New("boom") }

// Close is best-effort shutdown: exempt.
func (e *Engine) Close() error { return nil }

// Commit pretends to commit a store write.
func Commit() error { return nil }

// Pair returns a value and an error.
func Pair() (int, error) { return 0, nil }

// Harmless returns an error; no list names it, and the rule still holds.
func Harmless() error { return nil }

// Sweep is generic: its instantiated methods are matched through Origin.
type Sweep[P any] struct{ p P }

// Run pretends to run the campaign.
func (s *Sweep[P]) Run() error { return nil }

// Sink is an interface declared in the module.
type Sink interface {
	Write(b []byte) error
}

func discardStmt(e *Engine) {
	e.Run() // want errcrit "discarded"
}

// discardBlank is the shape of the errcrit mutants of EXPERIMENTS.md's
// mutant audit that no test killed, such as a discarded engine run in an
// experiment: the counters of a half-run simulation still read as
// numbers, so the error never reaches the figure.
func discardBlank(e *Engine) {
	_ = e.Run() // want errcrit "discarded"
}

func discardPair() {
	n, _ := Pair() // want errcrit "discarded"
	_ = n
}

func discardCommit() {
	Commit() // want errcrit "discarded"
}

func discardHarmless() {
	Harmless()     // want errcrit "errfix.Harmless is discarded"
	_ = Harmless() // want errcrit "errfix.Harmless is discarded"
}

func discardGeneric(s *Sweep[int]) {
	s.Run() // want errcrit "(*errfix.Sweep[P]).Run is discarded"
}

func discardInterface(s Sink) {
	s.Write(nil) // want errcrit "(errfix.Sink).Write is discarded"
}

func handled(e *Engine) error {
	if err := e.Run(); err != nil {
		return err
	}
	return Commit()
}

func closeIsExempt(e *Engine) {
	e.Close()
	_ = e.Close()
}

func stdlibIsNotModule() {
	os.Remove("x")
	_ = os.Setenv("K", "v")
}

func deliberate(e *Engine) {
	_ = e.Run() //jurylint:allow errcrit -- fixture: deliberate best-effort run
}
