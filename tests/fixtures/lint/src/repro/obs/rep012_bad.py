"""REP012 positive fixture: direct clocks and unentered spans in obs code."""

import datetime
import time


class Recorder:
    def __init__(self, tracer):
        self.tracer = tracer

    def stamp(self):
        return time.time()  # finding: direct wall clock in the obs layer

    def today(self):
        return datetime.datetime.today()  # finding: direct wall clock in the obs layer

    def measure(self, fn):
        started = time.monotonic()  # finding: direct monotonic read
        value = fn()
        return value, time.monotonic() - started  # finding: direct monotonic read

    def leak_assigned(self):
        pending = self.tracer.span("leak")  # finding: span never entered
        return pending

    def leak_statement(self):
        self.tracer.span("dropped")  # finding: span never entered
