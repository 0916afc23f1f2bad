// Command reference is the benchmark's speed reference: a fixed,
// single-threaded Go workload that shares no code with cogdiff. The runner
// times it as a fresh process right before every timed cogdiff run and
// divides the run's wall time by it, so a shared machine that slows down
// for minutes slows both and the normalized time stays put.
//
// Its mix follows what a cogdiff run does: string keys in maps, a tree of
// small heap objects, sorting, hashing and a large fresh allocation whose
// pages the kernel must fault in. It prints a checksum the runner checks.
package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
)

type node struct {
	left, right *node
	key         int
}

func insert(n *node, key int) *node {
	if n == nil {
		return &node{key: key}
	}
	if key < n.key {
		n.left = insert(n.left, key)
	} else {
		n.right = insert(n.right, key)
	}
	return n
}

func depth(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

func main() {
	x := uint64(12345) // xorshift state
	sum := 0
	for rep := 0; rep < 2; rep++ {
		counts := map[string]int{}
		var root *node
		var text []byte
		for i := 0; i < 40000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			key := strconv.FormatUint(x%100000, 10)
			counts[key] += i
			root = insert(root, int(x%1000000))
			text = append(text, key...)
		}
		values := make([]int, 0, len(counts))
		for _, v := range counts {
			values = append(values, v)
		}
		sort.Ints(values)
		h := sha256.Sum256(text)
		sum += len(values) + values[len(values)/2] + depth(root) + int(h[0])
	}
	pages := make([]byte, 24<<20)
	for i := 0; i < len(pages); i += 4096 {
		pages[i] = byte(i >> 12)
	}
	sum += int(pages[4096])
	fmt.Println(sum)
}
