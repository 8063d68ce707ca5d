package kvstore

import (
	"errors"
	"fmt"
	"strings"

	"mummi/internal/datastore"
)

// nsSep joins namespace and key into the flat cluster keyspace. Namespaces
// and keys may not contain it.
const nsSep = ":"

// Store adapts a Cluster to the abstract data interface: namespaces become
// key prefixes, Keys becomes a prefix scan, Move becomes a rename. This is
// MuMMI's "redis interface": any component can talk to it while cluster
// details stay hidden.
//
// Placement hashes only the bare key (not the namespace), so moving a key
// between namespaces — the feedback tagging primitive — is always a
// same-shard rename, never a cross-shard copy. The bare key is also the
// pipe affinity, so all operations on one key are ordered end to end even
// through the pooled async client.
type Store struct{ c *Cluster }

// NewStore wraps an existing cluster connection.
func NewStore(c *Cluster) *Store { return &Store{c: c} }

func init() {
	datastore.Register(datastore.BackendKV, func(cfg datastore.Config) (datastore.Store, error) {
		cl, err := DialCluster(cfg.Addrs)
		if err != nil {
			return nil, err
		}
		return NewStore(cl), nil
	})
}

func nsKey(ns, key string) (string, error) {
	if ns == "" || key == "" || strings.Contains(ns, nsSep) || strings.Contains(key, nsSep) {
		return "", fmt.Errorf("kvstore: invalid namespace/key %q/%q", ns, key)
	}
	return ns + nsSep + key, nil
}

// Put implements datastore.Store.
func (s *Store) Put(ns, key string, data []byte) error {
	k, err := nsKey(ns, key)
	if err != nil {
		return err
	}
	rep, err := s.c.doOnShard(s.c.ring.Lookup(key), key, []byte("SET"), []byte(k), data)
	if err != nil {
		return err
	}
	if rep.kind == '-' {
		return errors.New(rep.str)
	}
	return nil
}

// Get implements datastore.Store.
func (s *Store) Get(ns, key string) ([]byte, error) {
	k, err := nsKey(ns, key)
	if err != nil {
		return nil, err
	}
	rep, err := s.c.doOnShard(s.c.ring.Lookup(key), key, []byte("GET"), []byte(k))
	if err != nil {
		return nil, err
	}
	if rep.kind != '$' {
		return nil, errProtocol
	}
	if rep.bulk == nil {
		return nil, fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key)
	}
	return rep.bulk, nil
}

// Delete implements datastore.Store.
func (s *Store) Delete(ns, key string) error {
	k, err := nsKey(ns, key)
	if err != nil {
		return err
	}
	rep, err := s.c.doOnShard(s.c.ring.Lookup(key), key, []byte("DEL"), []byte(k))
	if err != nil {
		return err
	}
	if rep.n == 0 {
		return fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key)
	}
	return nil
}

// Keys implements datastore.Store.
func (s *Store) Keys(ns string) ([]string, error) {
	if ns == "" || strings.Contains(ns, nsSep) {
		return nil, fmt.Errorf("kvstore: invalid namespace %q", ns)
	}
	full, err := s.c.Keys(ns + nsSep + "*")
	if err != nil {
		return nil, err
	}
	out := make([]string, len(full))
	for i, f := range full {
		out[i] = strings.TrimPrefix(f, ns+nsSep)
	}
	return out, nil
}

// Move implements datastore.Store ("renaming keys in the database"):
// bare-key placement makes this a single same-shard RENAME.
func (s *Store) Move(srcNS, key, dstNS string) error {
	src, err := nsKey(srcNS, key)
	if err != nil {
		return err
	}
	dst, err := nsKey(dstNS, key)
	if err != nil {
		return err
	}
	rep, err := s.c.doOnShard(s.c.ring.Lookup(key), key, []byte("RENAME"), []byte(src), []byte(dst))
	if err != nil {
		return err
	}
	if rep.kind == '-' {
		return fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, srcNS, key)
	}
	return nil
}

// groupBare splits bare keys into per-shard lists (input order preserved
// within each shard), validating each against the namespace.
func (s *Store) groupBare(ns string, keys []string) ([][]string, error) {
	groups := make([][]string, len(s.c.shards))
	for _, k := range keys {
		if _, err := nsKey(ns, k); err != nil {
			return nil, err
		}
		i := s.c.ring.Lookup(k)
		groups[i] = append(groups[i], k)
	}
	return groups, nil
}

// GetBatch implements datastore.BatchGetter: one pipelined MGET per shard,
// all shards queried in parallel.
func (s *Store) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	groups, err := s.groupBare(ns, keys)
	if err != nil {
		return nil, err
	}
	per := make([]map[string][]byte, len(groups))
	err = s.c.fanout(func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		args := make([][]byte, 1, len(groups[i])+1)
		args[0] = []byte("MGET")
		for _, k := range groups[i] {
			args = append(args, []byte(ns+nsSep+k))
		}
		rep, err := s.c.doOnShard(i, "", args...)
		if err != nil {
			return err
		}
		if rep.kind != '*' || len(rep.array) != len(groups[i]) {
			return errProtocol
		}
		m := make(map[string][]byte, len(groups[i]))
		for j, k := range groups[i] {
			if rep.array[j] != nil {
				m[k] = rep.array[j]
			}
		}
		per[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	for _, m := range per {
		//lint:allow determinism -- map-to-map merge of disjoint key sets; result is order-independent
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// MoveBatch implements datastore.BatchMover: with bare-key placement every
// rename is same-shard, so the whole batch is one pipelined RENAME burst
// per shard, all shards in parallel. Keys missing from srcNS are skipped
// (not errors) — that contract is what makes the reconnect retry of a
// partially applied burst safe: a rename that already happened simply
// reports "no such key" on replay.
func (s *Store) MoveBatch(srcNS string, keys []string, dstNS string) error {
	groups := make([][]string, len(s.c.shards))
	for _, k := range keys {
		if _, err := nsKey(srcNS, k); err != nil {
			return err
		}
		if _, err := nsKey(dstNS, k); err != nil {
			return err
		}
		i := s.c.ring.Lookup(k)
		groups[i] = append(groups[i], k)
	}
	return s.c.fanout(func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		cmds := make([][][]byte, len(groups[i]))
		for j, k := range groups[i] {
			cmds[j] = [][]byte{[]byte("RENAME"), []byte(srcNS + nsSep + k), []byte(dstNS + nsSep + k)}
		}
		_, err := s.c.shards[i].doBatch(s.c, groups[i], cmds)
		return err
	})
}

// Close implements datastore.Store.
func (s *Store) Close() error { return s.c.Close() }

// ---------------------------------------------------------------------------
// Test / deployment helpers

// LaunchCluster starts n in-process servers on ephemeral loopback ports and
// returns their addresses plus a shutdown function. MuMMI's redis interface
// "sets up a cluster of Redis servers ... allocated randomly to all compute
// nodes"; this is that setup step for a single-machine deployment.
func LaunchCluster(n int) (addrs []string, shutdown func(), err error) {
	var servers []*Server
	shutdown = func() {
		for _, s := range servers {
			s.Close() //lint:allow errdiscipline -- best-effort teardown of ephemeral in-process servers
		}
	}
	for i := 0; i < n; i++ {
		s := NewServer(nil)
		addr, lerr := s.Listen("127.0.0.1:0")
		if lerr != nil {
			shutdown()
			return nil, nil, lerr
		}
		servers = append(servers, s)
		addrs = append(addrs, addr)
	}
	return addrs, shutdown, nil
}
