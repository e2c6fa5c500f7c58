package lockheld

import (
	"sync"
	"time"
)

type counter struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (c *counter) sendLocked() {
	c.mu.Lock()
	c.ch <- c.n // want "channel send while .* is held"
	c.mu.Unlock()
}

func (c *counter) sleepLocked() {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while .* is held"
}

func (c *counter) waitLocked(wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wg.Wait() // want "WaitGroup.Wait while .* is held"
}

// The region of a deferred unlock runs to the end of the function and
// takes in nested blocks.
func (c *counter) retryLocked() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		time.Sleep(time.Millisecond) // want "time.Sleep while .* is held"
	}
}

// A select without default blocks as one operation; the operations in
// its clauses' bodies block on their own.
func (c *counter) pollLocked(done chan struct{}) {
	c.mu.Lock()
	select { // want "select without default while .* is held"
	case <-done:
	case c.ch <- c.n:
		c.ch <- 0 // want "channel send while .* is held"
	}
	c.mu.Unlock()
}

// A function literal is a body of its own, checked with its own locks.
func (c *counter) spawnLocked() {
	go func() {
		c.mu.Lock()
		c.ch <- c.n // want "channel send while .* is held"
		c.mu.Unlock()
	}()
}

// A case clause is a block: a lock taken in it holds to the clause's
// end.
func (c *counter) drainLocked(wg *sync.WaitGroup, wait bool) {
	switch {
	case wait:
		c.mu.Lock()
		wg.Wait() // want "WaitGroup.Wait while .* is held"
		c.mu.Unlock()
	}
}

// Deferred calls run last in, first out: a wait deferred after the
// deferred unlock runs first, with the lock still held.
func (c *counter) waitDeferred(wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer wg.Wait() // want "deferred WaitGroup.Wait while .* is held"
	c.n++
}

// The spawner evaluates a go statement's arguments, under its lock.
func (c *counter) spawnArg(f func(int)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go f(<-c.ch) // want "channel receive while .* is held"
}
