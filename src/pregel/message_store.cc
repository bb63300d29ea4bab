#include "pregel/message_store.h"

namespace serigraph {

int PickMessageStoreShards(int64_t num_slots) {
  // One shard per ~32 vertices, clamped to [1, 16]: tiny partitions
  // (tests, small CLI graphs) get one or two mutexes; real partitions
  // (8k-40k vertices in the perfbench workloads) all get 16 stripes, so
  // remote batch delivery and local sends rarely collide.
  int64_t want = num_slots / 32;
  int shards = 1;
  while (shards < want && shards < 16) shards <<= 1;
  return shards;
}

}  // namespace serigraph
