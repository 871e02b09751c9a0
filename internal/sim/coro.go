//go:build go1.23

// The build line raises this file's language version to go1.23, the first
// with iter.Pull, while the module's go line stays at 1.22 (see README).

package sim

import "iter"

// start gives p a fresh coroutine; its first resume runs p.program from the
// top. With park set (a Recycler's shell) the coroutine outlives the
// program: it parks after each one and runs p.program again on the next
// resume, until stopped. Otherwise it exits when the program returns.
func (p *proc) start(park bool) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		for {
			p.run()
			if !park || !yield(struct{}{}) {
				return
			}
		}
	})
}
