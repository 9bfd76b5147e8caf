// Audit records: the before/after images of logical data base record
// updates that TMF writes to distributed audit trails, plus the transaction
// completion records (commit/abort) of the Monitor Audit Trail.

#ifndef ENCOMPASS_AUDIT_AUDIT_RECORD_H_
#define ENCOMPASS_AUDIT_AUDIT_RECORD_H_

#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/transid.h"
#include "storage/file.h"

namespace encompass::audit {

/// One logical data base update: before-image (for transaction backout) and
/// after-image (for ROLLFORWARD).
struct AuditRecord {
  Transid transid;
  std::string volume;  ///< disc volume of residence ("$DATA1")
  std::string file;
  storage::MutationOp op = storage::MutationOp::kInsert;
  Bytes key;
  Bytes before;        ///< empty for inserts
  Bytes after;         ///< empty for deletes
  uint64_t lsn = 0;    ///< assigned when appended to a trail

  Bytes Encode() const;
  static Result<AuditRecord> Decode(Slice* in);
};

/// The fields of one audit record, viewing bytes owned elsewhere: an
/// update's own key and images when a DISCPROCESS encodes its audit, an
/// append batch's payload when the AUDITPROCESS walks one. Every audit
/// record is encoded and decoded through this view.
struct AuditRecordView {
  Transid transid;
  Slice volume;
  Slice file;
  storage::MutationOp op = storage::MutationOp::kInsert;
  Slice key;
  Slice before;
  Slice after;
  uint64_t lsn = 0;

  size_t EncodedSize() const;
  /// Appends the record, growing `out` at most once (to exactly fit it).
  void EncodeTo(Bytes* out) const;
  /// The record in one buffer of exactly its size.
  Bytes Encode() const;
  /// Parses one record from the front of *in; the fields alias *in's bytes.
  static bool Decode(Slice* in, AuditRecordView* view);
  /// An owning copy.
  AuditRecord ToRecord() const;
};

/// Transaction completion status recorded in the Monitor Audit Trail.
enum class Completion : uint8_t {
  kCommitted = 0,
  kAborted = 1,
};

/// Monitor Audit Trail entry. "A transaction commits at the time its commit
/// record is written to the Monitor Audit Trail."
struct CompletionRecord {
  Transid transid;
  Completion completion = Completion::kCommitted;

  Bytes Encode() const;
  static Result<CompletionRecord> Decode(Slice* in);
};

}  // namespace encompass::audit

#endif  // ENCOMPASS_AUDIT_AUDIT_RECORD_H_
