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

// blockingHelper's effect summary says it may block on a channel.
func blockingHelper(ch chan int) int {
	return <-ch
}

func (c *counter) indirectBlock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = blockingHelper(c.ch) // want "call to blockingHelper may block"
}
