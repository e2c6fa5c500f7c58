// Package interproc is the call-graph unit-test fixture: a small
// function zoo with a linear chain, a mutually recursive pair, a
// self-recursive function, and one representative of each effect.
package interproc

import "fmt"

func Leaf() int { return 1 }

func Mid() int { return Leaf() + 1 }

func TopFn() int { return Mid() + Leaf() }

func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

func SelfRec(n int) int {
	if n <= 0 {
		return 0
	}
	return SelfRec(n - 1)
}

func Emits() { fmt.Println("x") }

func CallsEmits() { Emits() }

func Spawns(done chan int) {
	go func() { done <- 1 }()
}

func Blocks(ch chan int) int { return <-ch }

func CallsBlocks(ch chan int) int { return Blocks(ch) }

func RangesMap(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
