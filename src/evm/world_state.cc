#include "evm/world_state.h"

#include <utility>

namespace mufuzz::evm {

// ------------------------------------------------------------------ Storage --

const Storage::Entry* Storage::FindEntry(const U256& key) const {
  if (!spilled()) {
    for (size_t i = 0; i < inline_count_; ++i) {
      if (inline_[i].key == key) return &inline_[i];
    }
    return nullptr;
  }
  const size_t mask = table_.size() - 1;
  size_t i = U256::Hasher()(key) & mask;
  while (table_[i].live) {
    if (table_[i].key == key) return &table_[i];
    i = (i + 1) & mask;
  }
  return nullptr;
}

void Storage::EraseInline(size_t index) {
  inline_[index] = inline_[inline_count_ - 1];
  --inline_count_;
}

void Storage::EraseTable(size_t index) {
  // Backward-shift deletion keeps probe chains intact without tombstones:
  // walk forward from the hole and pull back every entry whose probe path
  // crosses it.
  const size_t mask = table_.size() - 1;
  size_t hole = index;
  size_t i = (index + 1) & mask;
  while (table_[i].live) {
    size_t ideal = U256::Hasher()(table_[i].key) & mask;
    if (((i - ideal) & mask) >= ((i - hole) & mask)) {
      table_[hole] = table_[i];
      hole = i;
    }
    i = (i + 1) & mask;
  }
  table_[hole].live = false;
  --table_live_;
}

void Storage::TableInsert(const Entry& entry) {
  if ((table_live_ + 1) * 4 > table_.size() * 3) {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{});
    table_live_ = 0;
    for (const Entry& e : old) {
      if (e.live) TableInsert(e);
    }
  }
  const size_t mask = table_.size() - 1;
  size_t i = U256::Hasher()(entry.key) & mask;
  while (table_[i].live) i = (i + 1) & mask;
  table_[i] = entry;
  table_[i].live = true;
  ++table_live_;
}

void Storage::MigrateToTable() {
  table_.assign(4 * kInlineCapacity, Entry{});
  table_live_ = 0;
  for (size_t i = 0; i < inline_count_; ++i) TableInsert(inline_[i]);
  inline_count_ = 0;
}

std::pair<U256, uint32_t> Storage::Exchange(const U256& key,
                                            const U256& value,
                                            uint32_t taint) {
  Entry* e = const_cast<Entry*>(FindEntry(key));
  if (e == nullptr) {
    if (value.IsZero() && taint == 0) return {U256::Zero(), 0};
    if (!value.IsZero()) ++value_count_;
    if (taint != 0) ++taint_count_;
    Entry fresh;
    fresh.key = key;
    fresh.value = value;
    fresh.taint = taint;
    if (!spilled()) {
      if (inline_count_ < kInlineCapacity) {
        inline_[inline_count_++] = fresh;
        return {U256::Zero(), 0};
      }
      MigrateToTable();
    }
    TableInsert(fresh);
    return {U256::Zero(), 0};
  }

  U256 prev = e->value;
  uint32_t prev_taint = e->taint;
  if (!prev.IsZero() && value.IsZero()) --value_count_;
  if (prev.IsZero() && !value.IsZero()) ++value_count_;
  if (prev_taint != 0 && taint == 0) --taint_count_;
  if (prev_taint == 0 && taint != 0) ++taint_count_;
  if (value.IsZero() && taint == 0) {
    if (spilled()) {
      EraseTable(static_cast<size_t>(e - table_.data()));
    } else {
      EraseInline(static_cast<size_t>(e - inline_.data()));
    }
  } else {
    e->value = value;
    e->taint = taint;
  }
  return {prev, prev_taint};
}

std::unordered_map<U256, U256, U256::Hasher> Storage::slots() const {
  std::unordered_map<U256, U256, U256::Hasher> out;
  out.reserve(value_count_);
  ForEach([&out](const Entry& e) {
    if (!e.value.IsZero()) out.emplace(e.key, e.value);
  });
  return out;
}

std::unordered_map<U256, uint32_t, U256::Hasher> Storage::taints() const {
  std::unordered_map<U256, uint32_t, U256::Hasher> out;
  out.reserve(taint_count_);
  ForEach([&out](const Entry& e) {
    if (e.taint != 0) out.emplace(e.key, e.taint);
  });
  return out;
}

bool operator==(const Storage& a, const Storage& b) {
  if (a.value_count_ != b.value_count_ || a.taint_count_ != b.taint_count_ ||
      a.live_count() != b.live_count()) {
    return false;
  }
  bool equal = true;
  a.ForEach([&](const Storage::Entry& e) {
    if (!equal) return;
    const Storage::Entry* other = b.FindEntry(e.key);
    if (other == nullptr || !(other->value == e.value) ||
        other->taint != e.taint) {
      equal = false;
    }
  });
  return equal;
}

// --------------------------------------------------------------- WorldState --

Account& WorldState::Ensure(const Address& addr) {
  auto it = accounts_.find(addr);
  if (it != accounts_.end()) return it->second;
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kCreateAccount;
    e.addr = addr;
    journal_.push_back(std::move(e));
  }
  return accounts_.try_emplace(addr).first->second;
}

void WorldState::SetBalance(const Address& addr, const U256& value) {
  Account& a = Ensure(addr);
  if (a.balance == value) return;
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kBalance;
    e.addr = addr;
    e.prev_word = a.balance;
    journal_.push_back(std::move(e));
  }
  a.balance = value;
}

bool WorldState::Transfer(const Address& from, const Address& to,
                          const U256& value) {
  if (value.IsZero()) return true;
  // Even a failed transfer brings `from` into existence (seed semantics,
  // pinned by the differential oracle). Copy the balance out; the reference
  // must not outlive the SetBalance inserts below.
  U256 src = Ensure(from).balance;
  if (src < value) return false;
  SetBalance(from, src - value);
  // Read `to` only after debiting `from` so a self-transfer nets to zero.
  SetBalance(to, GetBalance(to) + value);
  return true;
}

void WorldState::SetCode(const Address& addr, Bytes code) {
  Account& a = Ensure(addr);
  if (a.code == code) return;
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kCode;
    e.addr = addr;
    e.prev_code = std::move(a.code);
    journal_.push_back(std::move(e));
  }
  a.code = std::move(code);
  a.decoded.reset();  // the memoized IR no longer matches the bytes
}

void WorldState::SetStorage(const Address& addr, const U256& key,
                            const U256& value, uint32_t taint) {
  Account& a = Ensure(addr);
  auto [prev, prev_taint] = a.storage.Exchange(key, value, taint);
  if (prev == value && prev_taint == taint) return;  // no-op: nothing to undo
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kStorage;
    e.addr = addr;
    e.key = key;
    e.prev_word = prev;
    e.prev_taint = prev_taint;
    journal_.push_back(std::move(e));
  }
}

void WorldState::MarkSelfDestructed(const Address& addr) {
  Account& a = Ensure(addr);
  if (a.self_destructed) return;
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kSelfDestructed;
    e.addr = addr;
    e.prev_flag = false;
    journal_.push_back(std::move(e));
  }
  a.self_destructed = true;
}

bool WorldState::CollectWrites(size_t journal_from,
                               std::vector<StateWrite>* writes) const {
  writes->clear();
  for (size_t i = journal_from; i < journal_.size(); ++i) {
    const JournalEntry& e = journal_[i];
    // Only an unwind erases an account, so every journaled one is live.
    const Account& a = accounts_.at(e.addr);
    StateWrite& w = writes->emplace_back();
    w.addr = e.addr;
    switch (e.kind) {
      case JournalEntry::Kind::kCreateAccount:
        w.kind = StateWrite::Kind::kCreateAccount;
        break;
      case JournalEntry::Kind::kBalance:
        w.kind = StateWrite::Kind::kBalance;
        w.word = a.balance;
        break;
      case JournalEntry::Kind::kStorage:
        w.kind = StateWrite::Kind::kStorage;
        w.key = e.key;
        w.word = a.storage.Load(e.key);
        w.taint = a.storage.LoadTaint(e.key);
        break;
      case JournalEntry::Kind::kCode:
        return false;
      case JournalEntry::Kind::kSelfDestructed:
        w.kind = StateWrite::Kind::kSelfDestructed;
        break;
    }
  }
  return true;
}

void WorldState::ApplyWrites(const std::vector<StateWrite>& writes) {
  for (const StateWrite& w : writes) {
    switch (w.kind) {
      case StateWrite::Kind::kCreateAccount:
        Touch(w.addr);
        break;
      case StateWrite::Kind::kBalance:
        SetBalance(w.addr, w.word);
        break;
      case StateWrite::Kind::kStorage:
        SetStorage(w.addr, w.key, w.word, w.taint);
        break;
      case StateWrite::Kind::kSelfDestructed:
        MarkSelfDestructed(w.addr);
        break;
    }
  }
}

size_t WorldState::Snapshot() {
  marks_.push_back(journal_.size());
  return marks_.size() - 1;
}

void WorldState::UnwindTo(size_t mark) {
  while (journal_.size() > mark) {
    JournalEntry& e = journal_.back();
    auto it = accounts_.find(e.addr);
    switch (e.kind) {
      case JournalEntry::Kind::kCreateAccount:
        if (it != accounts_.end()) accounts_.erase(it);
        break;
      case JournalEntry::Kind::kBalance:
        if (it != accounts_.end()) it->second.balance = e.prev_word;
        break;
      case JournalEntry::Kind::kStorage:
        if (it != accounts_.end()) {
          it->second.storage.Store(e.key, e.prev_word, e.prev_taint);
        }
        break;
      case JournalEntry::Kind::kCode:
        if (it != accounts_.end()) {
          it->second.code = std::move(e.prev_code);
          it->second.decoded.reset();
        }
        break;
      case JournalEntry::Kind::kSelfDestructed:
        if (it != accounts_.end()) it->second.self_destructed = e.prev_flag;
        break;
    }
    journal_.pop_back();
  }
}

void WorldState::RevertTo(size_t id) {
  if (id >= marks_.size()) return;
  UnwindTo(marks_[id]);
  marks_.resize(id);
}

void WorldState::Commit(size_t id) {
  if (id >= marks_.size()) return;
  marks_.resize(id);
  // With no live snapshot nothing can ever unwind these entries; drop them
  // so sessions that commit at top level don't grow the journal unboundedly.
  if (marks_.empty()) journal_.clear();
}

void WorldState::RestoreKeep(size_t id) {
  if (id >= marks_.size()) return;
  UnwindTo(marks_[id]);
  marks_.resize(id + 1);
}

}  // namespace mufuzz::evm
