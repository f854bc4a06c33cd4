#ifndef MUFUZZ_EVM_WORLD_STATE_H_
#define MUFUZZ_EVM_WORLD_STATE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/address.h"
#include "common/bytes.h"
#include "common/u256.h"

namespace mufuzz::evm {

struct DecodedCode;

/// Persistent key-value storage of one account (the contract Storage of
/// §II-A). Missing keys read as zero; writing zero erases the key so that
/// the map stays compact.
///
/// Alongside each slot a taint mask is kept so that flows like "block
/// timestamp written by tx1, branched on by tx2" survive across transactions
/// — the oracles need sequence-level taint, not just intra-transaction taint.
///
/// Layout: slot value and taint share one entry (a key is live iff its
/// value or taint is nonzero — the old twin-hash-map semantics, merged), in
/// a flat structure with two tiers. Most contracts touch a handful of
/// slots, so entries start in a small inline array scanned linearly — no
/// heap at all on the SSTORE/SLOAD path; accounts that outgrow it migrate
/// once into an open-addressing table (linear probing, backward-shift
/// deletion) whose capacity then only grows. The journaled SSTORE path
/// (Exchange) is a single probe either way.
class Storage {
 public:
  U256 Load(const U256& key) const {
    const Entry* e = FindEntry(key);
    return e == nullptr ? U256::Zero() : e->value;
  }

  /// Taint recorded by the most recent store to `key` (kTaintNone if unset).
  uint32_t LoadTaint(const U256& key) const {
    const Entry* e = FindEntry(key);
    return e == nullptr ? 0 : e->taint;
  }

  void Store(const U256& key, const U256& value, uint32_t taint = 0) {
    (void)Exchange(key, value, taint);
  }

  /// Store that also returns the previous (value, taint) — one probe
  /// instead of the Load + LoadTaint + Store triple-probing the journaled
  /// SSTORE path would otherwise pay. Writing zero erases the slot (and
  /// zero taint erases the mask) so the map stays compact.
  std::pair<U256, uint32_t> Exchange(const U256& key, const U256& value,
                                     uint32_t taint);

  /// Live slots (nonzero value), matching the old value-map size.
  size_t size() const { return value_count_; }
  bool empty() const { return value_count_ == 0; }
  void Clear() {
    inline_count_ = 0;
    table_.clear();
    table_live_ = 0;
    value_count_ = 0;
    taint_count_ = 0;
  }

  /// Materialized value view (by value — storage is no longer backed by a
  /// hash map; tests and dumps are the only consumers).
  std::unordered_map<U256, U256, U256::Hasher> slots() const;
  /// Per-slot taint masks — exposed so tests can assert that taint survives
  /// snapshot/revert, not just slot values.
  std::unordered_map<U256, uint32_t, U256::Hasher> taints() const;

  /// Order-independent equality over live (value, taint) entries — exactly
  /// the old slots_ == slots_ && taints_ == taints_ comparison.
  friend bool operator==(const Storage& a, const Storage& b);

 private:
  struct Entry {
    U256 key;
    U256 value;
    uint32_t taint = 0;
    bool live = false;  ///< spill-table occupancy (inline uses count)
  };

  static constexpr size_t kInlineCapacity = 8;

  bool spilled() const { return !table_.empty(); }
  const Entry* FindEntry(const U256& key) const;
  /// Visits every live entry (order unspecified).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (spilled()) {
      for (const Entry& e : table_) {
        if (e.live) fn(e);
      }
    } else {
      for (size_t i = 0; i < inline_count_; ++i) fn(inline_[i]);
    }
  }

  size_t live_count() const {
    return spilled() ? table_live_ : inline_count_;
  }
  void EraseInline(size_t index);
  void EraseTable(size_t index);
  /// Inserts into the spill table (grows/rehashes at 3/4 load).
  void TableInsert(const Entry& entry);
  void MigrateToTable();

  std::array<Entry, kInlineCapacity> inline_{};
  size_t inline_count_ = 0;
  std::vector<Entry> table_;  ///< power-of-two open-addressing spill tier
  size_t table_live_ = 0;
  size_t value_count_ = 0;  ///< live entries with nonzero value
  size_t taint_count_ = 0;  ///< live entries with nonzero taint
};

/// One blockchain account: balance, code, and storage.
struct Account {
  U256 balance;
  Bytes code;
  Storage storage;
  bool self_destructed = false;

  /// Decode memo: the cached IR for `code`, filled lazily by the
  /// interpreter on first frame entry so repeat executions skip the
  /// keccak-keyed cache probe. Invalidated by SetCode (and its journal
  /// undo). Mutable because it is a cache over the read-only view WorldState
  /// exposes; excluded from operator== — it is never observable state.
  mutable std::shared_ptr<const DecodedCode> decoded;

  bool HasCode() const { return !code.empty(); }

  friend bool operator==(const Account& a, const Account& b) {
    return a.balance == b.balance && a.code == b.code &&
           a.storage == b.storage && a.self_destructed == b.self_destructed;
  }
};

/// The final value of one field that a stretch of journaled mutations
/// changed (WorldState::CollectWrites). Applying a transaction's writes to
/// the state it started from reproduces the state it left behind.
struct StateWrite {
  enum class Kind : uint8_t {
    kCreateAccount,   ///< the account exists
    kBalance,         ///< balance = word
    kStorage,         ///< storage[key] = (word, taint)
    kSelfDestructed,  ///< the account is flagged self-destructed
  };
  Kind kind = Kind::kCreateAccount;
  Address addr;
  U256 key;
  U256 word;
  uint32_t taint = 0;
};

/// The mutable world the fuzzer executes against: a map of accounts with
/// journaled copy-on-write snapshot/restore.
///
/// Every mutation goes through a setter that appends an undo entry to a
/// write journal, so `Snapshot()` is "record the journal length" (O(1)) and
/// `RevertTo`/`RestoreKeep` are "unwind the journal to the mark" — cost
/// proportional to the mutations performed since the snapshot, not to total
/// state size. This is what makes the fuzzer's per-sequence rewind to the
/// post-deployment state (§IV's fresh-state runs) cheap: a sequence that
/// touches k slots rewinds in O(k) regardless of how many accounts exist.
///
/// Invariants:
///  - Mutations are only possible through the journaled setters; no mutable
///    `Account&` escapes this class, so no write can bypass the journal.
///  - While no snapshot is live the journal is empty and setters skip
///    journaling entirely (nothing could ever unwind past that point).
///  - Snapshot ids form a stack: reverting or committing id `i` invalidates
///    every id >= i, and `RestoreKeep(i)` keeps exactly ids 0..i alive.
class WorldState {
 public:
  /// Returns the account or nullptr if it was never created. The returned
  /// pointer is read-only and valid only until the next mutation (the
  /// accounts map may rehash).
  const Account* Find(const Address& addr) const {
    auto it = accounts_.find(addr);
    return it == accounts_.end() ? nullptr : &it->second;
  }

  /// Creates an empty account if `addr` was never touched (journaled).
  void Touch(const Address& addr) { Ensure(addr); }

  U256 GetBalance(const Address& addr) const {
    const Account* a = Find(addr);
    return a ? a->balance : U256::Zero();
  }
  void SetBalance(const Address& addr, const U256& value);

  /// Moves `value` from `from` to `to`; false if `from` lacks funds.
  bool Transfer(const Address& from, const Address& to, const U256& value);

  /// Installs code at an address (deployment).
  void SetCode(const Address& addr, Bytes code);

  U256 GetStorage(const Address& addr, const U256& key) const {
    const Account* a = Find(addr);
    return a ? a->storage.Load(key) : U256::Zero();
  }
  uint32_t GetStorageTaint(const Address& addr, const U256& key) const {
    const Account* a = Find(addr);
    return a ? a->storage.LoadTaint(key) : 0;
  }
  void SetStorage(const Address& addr, const U256& key, const U256& value,
                  uint32_t taint = 0);

  /// Flags the account as self-destructed (SELFDESTRUCT executed against it).
  void MarkSelfDestructed(const Address& addr);

  /// Snapshot id for later revert. Snapshots nest (stack discipline). O(1):
  /// records the current journal length.
  size_t Snapshot();
  /// Reverts to (and discards) snapshot `id` and all later snapshots by
  /// unwinding the journal.
  void RevertTo(size_t id);
  /// Discards snapshot `id` and later ones without reverting. The journal
  /// entries survive so an *earlier* snapshot can still unwind them.
  void Commit(size_t id);
  /// Restores the state captured by snapshot `id` but keeps the snapshot
  /// alive, so it can be restored again — the fuzzer rewinds to the
  /// post-deployment state before every sequence execution.
  void RestoreKeep(size_t id);

  /// Replaces `writes` with the current value of every field journaled
  /// since journal length `journal_from`, in journal order. Returns false
  /// (leaving `writes` unspecified) when the stretch installed code: code is
  /// not carried as a write.
  bool CollectWrites(size_t journal_from,
                     std::vector<StateWrite>* writes) const;
  /// Applies `writes` in order through the journaled setters, so a later
  /// restore unwinds them like any other mutation.
  void ApplyWrites(const std::vector<StateWrite>& writes);

  size_t account_count() const { return accounts_.size(); }
  /// Undo entries currently recorded (tests/benches observe journal growth).
  size_t journal_size() const { return journal_.size(); }
  /// Live snapshot marks (tests observe stack discipline).
  size_t snapshot_depth() const { return marks_.size(); }

  /// Whole-state read access for oracles, dumps, and the differential tests.
  const std::unordered_map<Address, Account, Address::Hasher>& accounts()
      const {
    return accounts_;
  }

 private:
  /// One undo record: enough to restore the single field a setter changed.
  struct JournalEntry {
    enum class Kind : uint8_t {
      kCreateAccount,   ///< undo: erase the account
      kBalance,         ///< undo: restore prev_word as balance
      kStorage,         ///< undo: restore (prev_word, prev_taint) at key
      kCode,            ///< undo: restore prev_code
      kSelfDestructed,  ///< undo: restore prev_flag
    };
    Kind kind;
    Address addr;
    U256 key;
    U256 prev_word;
    uint32_t prev_taint = 0;
    bool prev_flag = false;
    Bytes prev_code;
  };

  /// Returns the account, creating (and journaling) an empty one on first
  /// touch. Private on purpose: the reference is short-lived scratch inside
  /// one setter — handing it out would let callers mutate past the journal,
  /// and a later insert could rehash the map out from under it.
  Account& Ensure(const Address& addr);

  bool journaling() const { return !marks_.empty(); }
  /// Undoes journal entries until only `mark` remain.
  void UnwindTo(size_t mark);

  std::unordered_map<Address, Account, Address::Hasher> accounts_;
  std::vector<JournalEntry> journal_;
  /// marks_[i] = journal length when snapshot id i was taken.
  std::vector<size_t> marks_;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_WORLD_STATE_H_
