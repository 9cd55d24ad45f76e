/**
 * @file
 * Thread-safe sharded-mutex wrapper over serve::LruCache.
 *
 * One global cache lock would serialize every request of a
 * concurrent serving engine on a single mutex; instead the key space
 * is striped over S independent LRU caches, each behind its own
 * mutex, so concurrent clients only contend when their keys land in
 * the same stripe. get() returns the value by copy — a pointer into
 * a stripe would dangle the moment another thread touched it.
 *
 * Striping changes *eviction* behavior versus one big LRU (each
 * stripe evicts independently), which by the serving engine's
 * determinism contract may only affect speed: predictions are pure
 * per canonical block, so a cache can never change results, only
 * whether a forward pass is re-run.
 */

#ifndef DIFFTUNE_SERVE_SHARDED_CACHE_HH
#define DIFFTUNE_SERVE_SHARDED_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/lru_cache.hh"

namespace difftune::serve
{

/**
 * The full splitmix64 finalizer over an std::hash value. std::hash
 * is identity for integers on common library implementations, so raw
 * values of dense ids (isa::BlockId) would correlate with whatever
 * bits a consumer reduces by; the two multiply-xorshift rounds
 * decorrelate them.
 */
inline uint64_t
finalizeHash(uint64_t h)
{
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

template <typename Key, typename Value>
class ShardedLruCache
{
  public:
    /**
     * @param capacity total entry budget, split evenly (rounded up)
     *        across stripes
     * @param stripes lock stripe count (>= 1)
     */
    ShardedLruCache(size_t capacity, int stripes) : capacity_(capacity)
    {
        panic_if(stripes < 1, "ShardedLruCache: {} stripes", stripes);
        panic_if(capacity == 0,
                 "ShardedLruCache: capacity must be positive");
        const size_t per_stripe =
            (capacity + size_t(stripes) - 1) / size_t(stripes);
        stripes_.reserve(size_t(stripes));
        for (int i = 0; i < stripes; ++i)
            stripes_.push_back(std::make_unique<Stripe>(per_stripe));
    }

    /** Thread-safe lookup; a hit refreshes recency in its stripe. */
    std::optional<Value>
    get(const Key &key)
    {
        Stripe &stripe = stripeFor(key);
        std::lock_guard lock(stripe.mutex);
        if (const Value *hit = stripe.cache.get(key))
            return *hit;
        return std::nullopt;
    }

    /** Thread-safe insert/refresh, evicting the stripe's LRU entry
     *  when the stripe is full. */
    void
    put(Key key, Value value)
    {
        Stripe &stripe = stripeFor(key);
        std::lock_guard lock(stripe.mutex);
        stripe.cache.put(std::move(key), std::move(value));
    }

    /** Entries across all stripes (locks each in turn). */
    size_t
    size() const
    {
        size_t total = 0;
        for (const auto &stripe : stripes_) {
            std::lock_guard lock(stripe->mutex);
            total += stripe->cache.size();
        }
        return total;
    }

    /**
     * The configured total entry budget, exactly as passed to the
     * constructor (what `difftune_serve info` and sizing math should
     * report). Enforcement is per stripe — each stripe holds at most
     * ceil(capacity / stripes) entries — so when capacity does not
     * divide the stripe count, residency may exceed this budget by
     * up to stripes - 1 entries; enforcedCapacity() is that hard
     * bound. (This used to report stripes * per_stripe, overstating
     * the budget: 10 over 4 stripes reported 12.)
     */
    size_t capacity() const { return capacity_; }

    /** The hard residency bound actually enforced:
     *  stripes * ceil(capacity / stripes) >= capacity(). */
    size_t
    enforcedCapacity() const
    {
        return stripes_.size() * stripes_.front()->cache.capacity();
    }

    int numStripes() const { return int(stripes_.size()); }

    /**
     * The stripe index @p key lands in — exposed so the stripe-
     * balance test can audit the mix below against dense BlockId
     * key populations without replicating it.
     */
    size_t
    stripeIndex(const Key &key) const
    {
        // Finalize the hash before reducing: dense BlockId keys
        // would otherwise land in stripes by `id % stripes` —
        // balanced for sequential ids but perfectly correlated with
        // the bits the per-stripe unordered_map reduces the same
        // hash by, and pathological for any strided id population
        // (measured: 10k sequential BlockIds over 8 stripes stay
        // within 10% of fair share, worst stripe ~8.1% low; see
        // ShardedLruCacheTest.StripeBalanceOnDenseBlockIds).
        return size_t(finalizeHash(uint64_t(hash_(key))) %
                      stripes_.size());
    }

  private:
    struct Stripe
    {
        explicit Stripe(size_t capacity) : cache(capacity) {}

        mutable std::mutex mutex;
        LruCache<Key, Value> cache;
    };

    Stripe &
    stripeFor(const Key &key)
    {
        return *stripes_[stripeIndex(key)];
    }

    size_t capacity_; ///< configured budget (see capacity())
    std::vector<std::unique_ptr<Stripe>> stripes_;
    std::hash<Key> hash_;
};

} // namespace difftune::serve

#endif // DIFFTUNE_SERVE_SHARDED_CACHE_HH
