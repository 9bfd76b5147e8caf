#include "tmf/file_system.h"

namespace encompass::tmf {

namespace {
os::CallOptions DiscCallOptions() {
  os::CallOptions opt;
  opt.timeout = Seconds(3);
  opt.retries = 2;  // transparent across DISCPROCESS takeover
  return opt;
}
}  // namespace

void FileSystem::Read(const std::string& file, const Slice& key, bool lock,
                      Callback cb) {
  discprocess::DiscRequestView req;
  req.file = file;
  req.key = key;
  req.lock = lock;
  req.lock_timeout = lock_timeout_;
  DiscOp(discprocess::kDiscRead, file, key, req, std::move(cb));
}

void FileSystem::Seek(const std::string& file, const Slice& key, bool inclusive,
                      Callback cb) {
  discprocess::DiscRequestView req;
  req.file = file;
  req.key = key;
  req.inclusive = inclusive;
  DiscOp(discprocess::kDiscSeek, file, key, req, std::move(cb));
}

void FileSystem::Scan(const std::string& file, const Slice& key, bool inclusive,
                      uint32_t max_records, Callback cb) {
  discprocess::DiscRequestView req;
  req.file = file;
  req.key = key;
  req.inclusive = inclusive;
  req.max_records = max_records;
  DiscOp(discprocess::kDiscScan, file, key, req, std::move(cb));
}

void FileSystem::Insert(const std::string& file, const Slice& key,
                        const Slice& record, Callback cb) {
  discprocess::DiscRequestView req;
  req.file = file;
  req.key = key;
  req.record = record;
  req.lock_timeout = lock_timeout_;
  DiscOp(discprocess::kDiscInsert, file, key, req, std::move(cb));
}

void FileSystem::Update(const std::string& file, const Slice& key,
                        const Slice& record, Callback cb) {
  discprocess::DiscRequestView req;
  req.file = file;
  req.key = key;
  req.record = record;
  req.lock_timeout = lock_timeout_;
  DiscOp(discprocess::kDiscUpdate, file, key, req, std::move(cb));
}

void FileSystem::Delete(const std::string& file, const Slice& key, Callback cb) {
  discprocess::DiscRequestView req;
  req.file = file;
  req.key = key;
  req.lock_timeout = lock_timeout_;
  DiscOp(discprocess::kDiscDelete, file, key, req, std::move(cb));
}

void FileSystem::ReadAlternate(const std::string& file, const std::string& field,
                               const std::string& value,
                               const Slice& partition_key, Callback cb) {
  discprocess::DiscRequestView req;
  req.file = file;
  req.field = field;
  req.value = value;
  DiscOp(discprocess::kDiscReadAlt, file, partition_key, req, std::move(cb));
}

void FileSystem::LockFile(const std::string& file, Callback cb) {
  const storage::FileDefinition* def = catalog_->Find(file);
  if (def == nullptr) {
    cb(Status::NotFound("undefined file: " + file), {});
    return;
  }
  // Lock every partition; report the first failure.
  auto pending = std::make_shared<int>(
      static_cast<int>(def->partitions.entries().size()));
  auto first_error = std::make_shared<Status>();
  auto done = std::make_shared<Callback>(std::move(cb));
  discprocess::DiscRequestView req;
  req.file = file;
  req.lock_timeout = lock_timeout_;
  for (const auto& part : def->partitions.entries()) {
    SendToPartition(discprocess::kDiscLockFile, part, req.Encode(),
                    [pending, first_error, done](const Status& s, const Bytes& b) {
                      if (!s.ok() && first_error->ok()) *first_error = s;
                      if (--*pending == 0) (*done)(*first_error, b);
                    });
  }
}

void FileSystem::DiscOp(uint32_t tag, const std::string& file,
                        const Slice& routing_key,
                        const discprocess::DiscRequestView& req, Callback cb) {
  const storage::FileDefinition* def = catalog_->Find(file);
  if (def == nullptr) {
    cb(Status::NotFound("undefined file: " + file), {});
    return;
  }
  const storage::PartitionEntry& part = def->partitions.Locate(routing_key);
  SendToPartition(tag, part, req.Encode(), std::move(cb));
}

void FileSystem::SendToPartition(uint32_t tag,
                                 const storage::PartitionEntry& part,
                                 Bytes request, Callback cb) {
  net::Address dst(part.node, part.volume_process);
  const uint64_t transid = owner_->current_transid();
  if (part.node == owner_->id().node || transid == 0 ||
      ensured_.Contains(Ensured{transid, part.node})) {
    Issue(dst, tag, std::move(request), std::move(cb), transid);
    return;
  }
  // First transmission of this transid to another node: remote begin.
  EnsureRemote(part.node, [this, dst = std::move(dst), tag,
                           request = std::move(request), cb = std::move(cb),
                           transid](const Status& s) mutable {
    if (!s.ok()) {
      cb(s, {});
      return;
    }
    Issue(dst, tag, std::move(request), std::move(cb), transid);
  });
}

void FileSystem::Issue(const net::Address& dst, uint32_t tag, Bytes request,
                       Callback cb, uint64_t transid) {
  const uint64_t saved = owner_->current_transid();
  owner_->set_current_transid(transid);
  owner_->Call(dst, tag, std::move(request),
               [cb = std::move(cb)](const Status& s, const net::Message& m) {
                 cb(s, m.payload);
               },
               DiscCallOptions());
  owner_->set_current_transid(saved);
}

void FileSystem::EnsureRemote(net::NodeId dest,
                              std::function<void(const Status&)> cb) {
  uint64_t transid = owner_->current_transid();
  if (transid == 0 || dest == owner_->id().node ||
      ensured_.Contains(Ensured{transid, dest})) {
    cb(Status::Ok());
    return;
  }
  os::CallOptions opt;
  opt.timeout = Seconds(3);
  opt.retries = 1;
  owner_->Call(net::Address(owner_->id().node, "$TMP"), kTmfEnsureRemote,
               EncodeEnsureRemote(Transid::Unpack(transid), dest),
               [this, transid, dest, cb = std::move(cb)](const Status& s,
                                                         const net::Message&) {
                 if (s.ok()) ensured_.Insert(Ensured{transid, dest});
                 cb(s);
               },
               opt);
}

}  // namespace encompass::tmf
