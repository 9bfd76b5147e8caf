#include "audit/audit_record.h"

#include "common/coding.h"

namespace encompass::audit {

Bytes AuditRecord::Encode() const {
  return AuditRecordView{transid, Slice(volume), Slice(file), op,
                         Slice(key), Slice(before), Slice(after), lsn}
      .Encode();
}

Result<AuditRecord> AuditRecord::Decode(Slice* in) {
  AuditRecordView view;
  if (!AuditRecordView::Decode(in, &view)) return DecodeError("audit record");
  return view.ToRecord();
}

size_t AuditRecordView::EncodedSize() const {
  return 8 + LengthPrefixedSize(volume) + LengthPrefixedSize(file) + 1 +
         LengthPrefixedSize(key) + LengthPrefixedSize(before) +
         LengthPrefixedSize(after) + VarintLength(lsn);
}

void AuditRecordView::EncodeTo(Bytes* out) const {
  const size_t need = out->size() + EncodedSize();
  if (need > out->capacity()) out->reserve(need);
  PutFixed64(out, transid.Pack());
  PutLengthPrefixed(out, volume);
  PutLengthPrefixed(out, file);
  PutFixed8(out, static_cast<uint8_t>(op));
  PutLengthPrefixed(out, key);
  PutLengthPrefixed(out, before);
  PutLengthPrefixed(out, after);
  PutVarint64(out, lsn);
}

Bytes AuditRecordView::Encode() const {
  Bytes out;
  EncodeTo(&out);
  return out;
}

bool AuditRecordView::Decode(Slice* in, AuditRecordView* view) {
  uint64_t packed;
  uint8_t op_byte;
  if (!GetFixed64(in, &packed) || !GetLengthPrefixed(in, &view->volume) ||
      !GetLengthPrefixed(in, &view->file) || !GetFixed8(in, &op_byte) ||
      !GetLengthPrefixed(in, &view->key) ||
      !GetLengthPrefixed(in, &view->before) ||
      !GetLengthPrefixed(in, &view->after) || !GetVarint64(in, &view->lsn)) {
    return false;
  }
  view->transid = Transid::Unpack(packed);
  view->op = static_cast<storage::MutationOp>(op_byte);
  return true;
}

AuditRecord AuditRecordView::ToRecord() const {
  AuditRecord rec;
  rec.transid = transid;
  rec.volume = volume.ToString();
  rec.file = file.ToString();
  rec.op = op;
  rec.key = key.ToBytes();
  rec.before = before.ToBytes();
  rec.after = after.ToBytes();
  rec.lsn = lsn;
  return rec;
}

Bytes CompletionRecord::Encode() const {
  Bytes out;
  PutFixed64(&out, transid.Pack());
  PutFixed8(&out, static_cast<uint8_t>(completion));
  return out;
}

Result<CompletionRecord> CompletionRecord::Decode(Slice* in) {
  CompletionRecord rec;
  uint64_t packed;
  uint8_t c;
  if (!GetFixed64(in, &packed) || !GetFixed8(in, &c)) {
    return DecodeError("completion record");
  }
  rec.transid = Transid::Unpack(packed);
  rec.completion = static_cast<Completion>(c);
  return rec;
}

}  // namespace encompass::audit
