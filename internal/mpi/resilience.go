package mpi

import "fmt"

// Node-failure and checkpoint surfaces of the MPI library (DESIGN.md §7
// "Node failure and recovery"). The fail-stop boundary sits at the
// runtime scheduler, so the library's NIC-side machinery — CQ events,
// credit returns, in-flight GETs — keeps draining after a kill. What a
// dead node loses is host memory: sends still parked in its
// RC_NOT_DONE pending queues, waiting for a credit that will now be
// delivered to nobody.

// ReapDeadSends surrenders every pending send queued by a rank living
// on the dead node. Queued sends never consumed mailbox credits (they
// were refused with RC_NOT_DONE), so reaping them cannot unbalance the
// credit conservation law; a later credit return finds an empty queue
// and does nothing. drop takes ownership of each envelope's payload —
// the envelope record itself recycles here. Reap order follows
// pendlist (creation order), keeping replays deterministic. Returns the
// number of sends surrendered.
func (c *Comm) ReapDeadSends(node int, drop func(env *Envelope)) int {
	reaped := 0
	for _, q := range c.pendlist {
		if c.gni.Net.NodeOf(q.src) != node {
			continue
		}
		for q.head != nil {
			n := q.head
			q.head = n.next
			env := n.env
			n.next, n.env = nil, nil
			c.pnodes.Put(n)
			q.n--
			reaped++
			drop(env)
			c.envs.Put(env)
		}
		q.tail = nil
	}
	c.ctr.deadReaped += int64(reaped)
	return reaped
}

// CheckpointReady verifies the communicator holds no protocol state: no
// sends starved on RC_NOT_DONE, every envelope back in its pool, every
// pending-queue node returned. Under the coordination rule (checkpoint
// only at quiescence) all of these follow from message-level quiescence;
// a violation means the caller tried to snapshot mid-protocol and fails
// the checkpoint loudly.
func (c *Comm) CheckpointReady() error {
	for _, q := range c.pendlist {
		if q.n != 0 {
			return fmt.Errorf("mpi: %d sends starved on %d->%d", q.n, q.src, q.dst)
		}
	}
	for _, p := range []struct {
		name string
		out  int64
	}{
		{"envelope", c.envs.Outstanding()},
		{"pend-node", c.pnodes.Outstanding()},
	} {
		if p.out != 0 {
			return fmt.Errorf("mpi: %d %s records outstanding", p.out, p.name)
		}
	}
	return nil
}
